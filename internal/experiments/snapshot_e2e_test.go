package experiments

import (
	"os"
	"path/filepath"
	"testing"

	"hsprofiler/internal/worldgen"
)

// TestBinarySnapshotAttackEquivalence is the end-to-end check on the binary
// snapshot path: a full HS1 attack run (Tables 2-4) served from a world that
// went World → binary file → World must be bit-identical to the same run
// against the freshly generated world. This pins the whole chain — generator,
// codec, frozen CSR hand-off, platform, crawl, scoring, rendering — to the
// snapshot contents.
func TestBinarySnapshotAttackEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full HS1 run; skipped with -short")
	}
	sc := HS1()

	fresh := NewLab()
	defer fresh.Close()
	world, err := fresh.World(sc)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "hs1.world.bin")
	if err := world.WriteFile(path, worldgen.FormatBinary); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(path); err != nil || st.Size() == 0 {
		t.Fatalf("snapshot file missing or empty: %v", err)
	}
	reloaded, err := worldgen.ReadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := world.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if got, err := reloaded.Fingerprint(); err != nil || got != want {
		t.Fatalf("reloaded world diverges before any attack ran: fingerprint %s (%v), want %s", got, err, want)
	}

	viaSnapshot := NewLab()
	defer viaSnapshot.Close()
	if err := viaSnapshot.UseWorld(sc, reloaded); err != nil {
		t.Fatal(err)
	}

	scenarios := []Scenario{sc}
	_, t2Fresh, err := Table2(fresh, scenarios)
	if err != nil {
		t.Fatal(err)
	}
	_, t2Snap, err := Table2(viaSnapshot, scenarios)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := t2Fresh.String(), t2Snap.String(); a != b {
		t.Errorf("Table 2 differs across load paths:\nfresh:\n%s\nsnapshot:\n%s", a, b)
	}

	_, t3Fresh, err := Table3(fresh, scenarios)
	if err != nil {
		t.Fatal(err)
	}
	_, t3Snap, err := Table3(viaSnapshot, scenarios)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := t3Fresh.String(), t3Snap.String(); a != b {
		t.Errorf("Table 3 differs across load paths:\nfresh:\n%s\nsnapshot:\n%s", a, b)
	}

	_, t4Fresh, err := Table4(fresh, sc)
	if err != nil {
		t.Fatal(err)
	}
	_, t4Snap, err := Table4(viaSnapshot, sc)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := t4Fresh.String(), t4Snap.String(); a != b {
		t.Errorf("Table 4 differs across load paths:\nfresh:\n%s\nsnapshot:\n%s", a, b)
	}
}
