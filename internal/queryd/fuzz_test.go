package queryd

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
)

// FuzzServe drives an arbitrary path and raw query through the whole handler
// over the fixture root: no input panics it, every answer is one the surface
// defines, a refusal carries no validator, and a 200 is reproducible. The
// seed corpus in testdata/fuzz/FuzzServe runs with every `go test`.
func FuzzServe(f *testing.F) {
	h := New(Config{Root: fixtureRoot(f)}).Handler()
	serve := func(u *url.URL) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodGet, "/", nil)
		req.URL = u
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	f.Fuzz(func(t *testing.T, path, query string) {
		// What net/http's server hands a handler: it answers a request line
		// ParseRequestURI refuses (a control character, say) with 400 itself.
		u, err := url.ParseRequestURI((&url.URL{Path: path, RawQuery: query}).RequestURI())
		if err != nil {
			t.Skip(err)
		}
		rec := serve(u)
		if rec.Code == http.StatusMovedPermanently {
			// The mux answers a path that is not in canonical form with a
			// redirect to the form it is; the handler answers that one.
			loc, err := url.ParseRequestURI(rec.Header().Get("Location"))
			if err != nil {
				t.Fatalf("GET %s: redirect to unparsable %q", u, rec.Header().Get("Location"))
			}
			u = loc
			rec = serve(u)
		}
		switch rec.Code {
		case http.StatusOK, http.StatusNotModified, http.StatusBadRequest, http.StatusNotFound,
			http.StatusConflict, http.StatusTooManyRequests:
		default:
			t.Fatalf("GET %s: status %d: %.300s", u, rec.Code, rec.Body)
		}
		if rec.Code >= 400 && rec.Header().Get("ETag") != "" {
			t.Fatalf("GET %s: %d carries ETag %s", u, rec.Code, rec.Header().Get("ETag"))
		}
		// /metrics counts the requests themselves, so only it may differ.
		if rec.Code == http.StatusOK && u.Path != "/metrics" {
			if again := serve(u); again.Code != http.StatusOK || !bytes.Equal(again.Body.Bytes(), rec.Body.Bytes()) {
				t.Fatalf("GET %s: repeated 200 answered %d with a different body", u, again.Code)
			}
		}
	})
}
