package workload

import (
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
)

func TestSpecJSONRoundTrip(t *testing.T) {
	for _, s := range All() {
		data, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		var back Spec
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if back != *s {
			t.Fatalf("%s: round trip changed the spec:\n  %+v\nvs\n  %+v", s.Name, *s, back)
		}
	}
}

func TestSpecJSONValidation(t *testing.T) {
	bad := `{"name":"x","mix":{"int":1},"chains":0,"workingSetKB":1,"totalWork":100,"iterLen":10}`
	var s Spec
	if err := json.Unmarshal([]byte(bad), &s); err == nil {
		t.Fatal("invalid spec (chains=0) unmarshalled without error")
	}
}

func TestSpecJSONUnknownFields(t *testing.T) {
	for _, body := range []string{
		`{"name":"x","mix":{"int":1},"chains":1,"workingSetKB":1,"totalWork":1000,"iterLen":100,"lockEvry":2}`,
		`{"name":"x","mix":{"int":1,"flops":3},"chains":1,"workingSetKB":1,"totalWork":1000,"iterLen":100}`,
	} {
		var s Spec
		err := json.Unmarshal([]byte(body), &s)
		if err == nil || !strings.Contains(err.Error(), "unknown field") {
			t.Errorf("%s: err = %v, want an unknown-field error", body, err)
		}
	}
}

func TestSpecJSONLockKinds(t *testing.T) {
	base := `{"name":"x","mix":{"int":1},"chains":1,"workingSetKB":1,
	          "totalWork":1000,"iterLen":100,"lockEvery":2,"critLen":10,"lockKind":%q}`
	var s Spec
	if err := json.Unmarshal([]byte(strings.ReplaceAll(base, "%q", `"blocking"`)), &s); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(strings.ReplaceAll(base, "%q", `"bogus"`)), &s); err == nil {
		t.Fatal("bogus lock kind accepted")
	}
}

func TestLoadSpec(t *testing.T) {
	doc := `{
	  "name": "custom-kernel",
	  "mix": {"load": 0.3, "store": 0.1, "branch": 0.1, "int": 0.3, "fpvec": 0.2},
	  "chains": 4, "chainFrac": 0.8,
	  "workingSetKB": 256, "coldFrac": 0.1,
	  "totalWork": 100000, "iterLen": 1000
	}`
	s, err := LoadSpec(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "custom-kernel" || s.Chains != 4 {
		t.Fatalf("loaded spec wrong: %+v", s)
	}
	// And it must instantiate and run as a source.
	if _, err := Instantiate(s, 2, 1); err != nil {
		t.Fatal(err)
	}
}

func TestLoadSpecBadJSON(t *testing.T) {
	if _, err := LoadSpec(strings.NewReader("{nope")); err == nil {
		t.Fatal("bad JSON accepted")
	}
}

func TestSaveAndLoadSpecFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ep.json")
	orig, _ := Get("EP")
	if err := SaveSpecFile(orig, path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadSpecFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if *back != *orig {
		t.Fatal("file round trip changed the spec")
	}
}

func TestLoadSpecFileMissing(t *testing.T) {
	if _, err := LoadSpecFile("/nonexistent/x.json"); err == nil {
		t.Fatal("missing file accepted")
	}
}
