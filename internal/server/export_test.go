package server

import (
	"net/http"

	"dwr/internal/qproc"
)

// Busy is the number of workers the front-end's queue counts as
// occupied, for tests that check none leaked.
func (f *Frontend) Busy() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.q.busy
}

// ObserveLatency books one served request of ms milliseconds in the
// /stats latency histogram, as completing it would.
func (f *Frontend) ObserveLatency(ms float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.lat.Add(ms)
}

// WriteJSON is the handlers' response writer.
func WriteJSON(w http.ResponseWriter, code int, v interface{}) { writeJSON(w, code, v) }

// WriteSearch is the /search success path's response writer.
func WriteSearch(w http.ResponseWriter, st Status, qr *qproc.QueryResult, resolve func(doc int) string) {
	writeSearch(w, st, qr, resolve)
}

// AppendSearch appends the /search body WriteSearch sends to b.
func AppendSearch(b []byte, st Status, qr *qproc.QueryResult, resolve func(doc int) string) ([]byte, error) {
	return appendSearch(b, st, qr, resolve)
}
