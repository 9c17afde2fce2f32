package queryd

import (
	"bytes"
	"log"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/sweep"
)

// TestSealedEmptySweepIsAnErrorNotAPanic serves a root holding a sweep.json
// sealed over zero points. It used to list as complete and panic the render
// inside the cache fill (Report indexes Points[0]); now the store refuses the
// manifest, so every route under the name answers with an ordinary error.
func TestSealedEmptySweepIsAnErrorNotAPanic(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "empty")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	raw := `{"FormatVersion":1,"Points":[],"Complete":true}` + "\n"
	if err := os.WriteFile(filepath.Join(dir, sweep.ManifestName), []byte(raw), 0o644); err != nil {
		t.Fatal(err)
	}

	var logged bytes.Buffer
	ts := httptest.NewUnstartedServer(New(Config{Root: root}).Handler())
	ts.Config.ErrorLog = log.New(&logged, "", 0)
	ts.Start()
	defer ts.Close()

	for _, path := range []string{"/v1/sweeps/empty", "/v1/sweeps/empty/renders/whatif-grid", "/v1/sweeps/empty/renders/all"} {
		// get fails the test if the connection dies, as it does when the
		// handler panics.
		resp, body := get(t, ts.URL+path, nil)
		if resp.StatusCode < 400 {
			t.Errorf("%s: %s: %s, want an error status", path, resp.Status, body)
		}
	}
	resp, body := get(t, ts.URL+"/v1/catalog", nil)
	if resp.StatusCode != 200 || bytes.Contains(body, []byte(`"empty"`)) {
		t.Errorf("catalog: %s: %s, want 200 without the refused sweep", resp.Status, body)
	}
	ts.Close()
	if logged.Len() != 0 {
		t.Errorf("server logged: %s", logged.String())
	}
}
