package server

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"nous"
)

// FuzzWindowParams throws arbitrary bytes at the time-window query
// parameters (since/until on /api/v1/recent, asince/auntil/bsince/buntil
// on /api/v1/diff) and checks the contract: the parsers never panic, a
// parse failure surfaces as HTTP 400, never a 5xx, and every answer is one
// compact envelope.
func FuzzWindowParams(f *testing.F) {
	f.Add("2015", "2016")
	f.Add("1735689600", "-100")
	f.Add("2015-06-01", "2015-06-01T10:00:00Z")
	f.Add("", "0100")
	f.Add("999999999999999999999", "not-a-time")
	f.Add("0x41", "1e9")
	f.Add("\x00", "\xff\xfe")

	// Built once per fuzzing process: iterations are request-cheap, world
	// generation is not.
	srv := NewWithTimeout(testPipeline(f), 0)

	f.Fuzz(func(t *testing.T, since, until string) {
		q := url.Values{}
		if since != "" {
			q.Set("since", since)
		}
		if until != "" {
			q.Set("until", until)
		}
		r := httptest.NewRequest("GET", "/api/v1/recent?"+q.Encode(), nil)

		// Direct parser contract: never panics, and an absent pair is the
		// unbounded window rather than a half-initialized one.
		w, ok, err := halfWindow(r, "since", "until")
		if err == nil && !ok && w != (nous.Window{}) {
			t.Fatalf("absent pair returned non-zero window %+v", w)
		}

		wantBad := err != nil

		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, r)
		if wantBad && rec.Code != http.StatusBadRequest {
			t.Fatalf("since=%q until=%q: parse error %v but status %d, want 400", since, until, err, rec.Code)
		}
		if rec.Code >= 500 {
			t.Fatalf("since=%q until=%q: status %d, want non-5xx", since, until, rec.Code)
		}
		requireCompact(t, "recent", rec.Body.Bytes())

		// The diff endpoint reuses the same parser for both window pairs.
		dq := url.Values{}
		dq.Set("asince", since)
		dq.Set("auntil", until)
		dq.Set("bsince", since)
		dq.Set("buntil", until)
		dr := httptest.NewRequest("GET", "/api/v1/diff?"+dq.Encode(), nil)
		drec := httptest.NewRecorder()
		srv.ServeHTTP(drec, dr)
		if wantBad && drec.Code != http.StatusBadRequest {
			t.Fatalf("diff asince=%q auntil=%q: parse error expected 400, got %d", since, until, drec.Code)
		}
		if drec.Code >= 500 {
			t.Fatalf("diff asince=%q auntil=%q: status %d, want non-5xx", since, until, drec.Code)
		}
		requireCompact(t, "diff", drec.Body.Bytes())
	})
}
