package traces

import (
	"math"
	"os"
	"path/filepath"
	"testing"
)

func TestProfilesBuildAndPin(t *testing.T) {
	names := Names()
	if len(names) < 4 {
		t.Fatalf("Names() = %v, want ≥4 profiles", names)
	}
	for _, name := range names {
		a, err := Profile(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := Profile(name)
		if err != nil {
			t.Fatal(err)
		}
		// Same name must pin the exact same trace — epoch by epoch.
		if a.Epochs() != b.Epochs() || a.Period() != b.Period() {
			t.Fatalf("%s: rebuild changed shape", name)
		}
		for e := int64(0); e < int64(a.Epochs()); e++ {
			if a.EpochBps(e) != b.EpochBps(e) {
				t.Fatalf("%s: epoch %d differs across builds", name, e)
			}
		}
		if a.MeanBps() <= 0 {
			t.Fatalf("%s: non-positive mean capacity", name)
		}
	}
	if _, err := Profile("nope"); err == nil {
		t.Fatal("unknown profile: want error")
	}
}

func TestDeadzoneHasZeroCapacityEpochs(t *testing.T) {
	tl, err := Profile("deadzone")
	if err != nil {
		t.Fatal(err)
	}
	zeros := 0
	for e := int64(0); e < int64(tl.Epochs()); e++ {
		if tl.EpochBps(e) == 0 {
			zeros++
		}
	}
	if zeros == 0 {
		t.Fatal("deadzone profile has no zero-capacity epochs")
	}
}

// TestLoad resolves -link-trace specs: a profile name, a Mahimahi file
// path, the scale applied to either, and the errors of a missing or
// malformed file.
func TestLoad(t *testing.T) {
	if tl, err := Load("", 1); tl != nil || err != nil {
		t.Fatalf("empty spec: %v, %v", tl, err)
	}
	tl, err := Load("lte", 1)
	if err != nil {
		t.Fatal(err)
	}
	if tl.Name() != "synthetic:lte" {
		t.Fatalf("name = %q", tl.Name())
	}
	half, err := Load("lte", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := half.MeanBps(), tl.MeanBps()/2; math.Abs(got-want) > 1 {
		t.Fatalf("scaled mean %v, want %v", got, want)
	}

	// Mahimahi file path.
	dir := t.TempDir()
	path := filepath.Join(dir, "cell.trace")
	if err := os.WriteFile(path, []byte("0\n10\n20\n30\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	ftl, err := Load(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ftl.Name() != "cell.trace" || ftl.MeanBps() <= 0 {
		t.Fatalf("file trace: name %q mean %v", ftl.Name(), ftl.MeanBps())
	}

	if _, err := Load(filepath.Join(dir, "missing.trace"), 1); err == nil {
		t.Fatal("missing file: want error")
	}
	bad := filepath.Join(dir, "bad.trace")
	if err := os.WriteFile(bad, []byte("not-a-timestamp\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bad, 1); err == nil {
		t.Fatal("malformed file: want parse error")
	}
}
