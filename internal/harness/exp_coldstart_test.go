package harness

import (
	"testing"

	"datalinks/internal/sqlmini"
	"datalinks/internal/wal"
)

// TestAnchoredNeedsTheChurnCheckpoint: E18's anchoring gate passes only a
// recovery that started from the snapshot at or past the churn's checkpoint.
func TestAnchoredNeedsTheChurnCheckpoint(t *testing.T) {
	for _, tc := range []struct {
		name string
		rep  sqlmini.RecoveryReport
		ckpt wal.LSN
		ok   bool
	}{
		{"at the checkpoint", sqlmini.RecoveryReport{SnapshotUsed: true, AnchorLSN: 97}, 97, true},
		{"past the checkpoint", sqlmini.RecoveryReport{SnapshotUsed: true, AnchorLSN: 120}, 97, true},
		{"verify-only run", sqlmini.RecoveryReport{SnapshotUsed: true, AnchorLSN: 193}, 0, true},
		{"snapshot not used", sqlmini.RecoveryReport{AnchorLSN: 97}, 97, false},
		{"anchor at the log's start", sqlmini.RecoveryReport{SnapshotUsed: true}, 0, false},
		{"anchor below the checkpoint", sqlmini.RecoveryReport{SnapshotUsed: true, AnchorLSN: 12}, 97, false},
	} {
		if err := anchored(&tc.rep, tc.ckpt); (err == nil) != tc.ok {
			t.Errorf("%s: anchored = %v, want ok %v", tc.name, err, tc.ok)
		}
	}
}

// TestColdStartHoldsAtOtherChurnSizes: E18's gates hold whatever the churn
// logs, at history lengths and edit sizes other than the defaults.
func TestColdStartHoldsAtOtherChurnSizes(t *testing.T) {
	if testing.Short() {
		t.Skip("E18 runs skipped in -short mode")
	}
	for _, c := range []coldConfig{
		{Files: 3, FileKB: 256, Versions: 2, EditKB: 4},
		{Files: 3, FileKB: 256, Versions: 12, EditKB: 4},
	} {
		if _, err := c.run(); err != nil {
			t.Errorf("E18 at %d versions of %d KiB edits: %v", c.Versions, c.EditKB, err)
		}
	}
}
