module dwr/bench

go 1.22

require dwr v0.0.0

replace dwr => ../
