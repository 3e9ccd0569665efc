package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"

	"caasper/internal/recommend"
)

// snapshotVersion is the checkpoint format version. Version 2 added the
// multi-resource tenant fields (all omitempty) and spells each decision's
// allocation as Current/Target vectors. Restore still accepts v1
// checkpoints: their tenants resume with RAM/disk/replicas at their
// config defaults, and their decisions' pre-vector CPU keys are read by
// backfillV1Decisions.
const snapshotVersion = 2

// snapshotVersionV1 is the CPU-only predecessor Restore migrates from.
const snapshotVersionV1 = 1

// snapshotHeader is the first NDJSON line of a checkpoint.
type snapshotHeader struct {
	Format  string `json:"format"`
	Version int    `json:"version"`
	Tenants int    `json:"tenants"`
}

// snapshotTenant is one tenant's checkpoint line. PolicyState carries
// the recommend.StateSnapshotter payload (window, total, scratch memo);
// policies without the interface restore cold, flagged by HasState.
type snapshotTenant struct {
	ID       string           `json:"id"`
	Config   TenantConfig     `json:"config"`
	Cores    int              `json:"cores"`
	Minute   int              `json:"minute"`
	Seq      int64            `json:"seq"`
	HasState bool             `json:"has_state"`
	State    recommend.State  `json:"state,omitempty"`
	Log      []DecisionRecord `json:"log,omitempty"`
	// Multi-resource state (v2, omitted for CPU-only tenants): current
	// grants plus the between-decision peaks, so a restored tenant's next
	// multi decision is bit-identical too.
	RAMGB    int     `json:"ram_gb,omitempty"`
	DiskGB   int     `json:"disk_gb,omitempty"`
	Replicas int     `json:"replicas,omitempty"`
	RAMPeak  float64 `json:"ram_peak,omitempty"`
	DiskHigh float64 `json:"disk_high,omitempty"`
	CPUPeak  float64 `json:"cpu_peak,omitempty"`
}

// Snapshot checkpoints every tenant to path as versioned NDJSON: one
// header line, then one line per tenant in sorted ID order. The write is
// atomic (temp file + rename), so a crash mid-snapshot leaves the
// previous checkpoint intact. Each tenant serialises under its own
// lock; in-flight batches for other tenants keep draining.
func (s *Server) Snapshot(path string) error {
	ids := s.tenantIDs()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(snapshotHeader{Format: "caasper-serve", Version: snapshotVersion, Tenants: len(ids)}); err != nil {
		return err
	}
	for _, id := range ids {
		var st snapshotTenant
		ok := false
		s.lookupQuiet(id, func(t *tenantState) {
			st = snapshotTenant{
				ID:     t.id,
				Config: t.cfg,
				Cores:  t.cores,
				Minute: t.minute,
				Seq:    t.seq,
				Log:    t.log,
			}
			if t.cfg.multi() {
				st.RAMGB = t.ramGB
				st.DiskGB = t.diskGB
				st.Replicas = t.replicas
				st.RAMPeak = t.ramPeak
				st.DiskHigh = t.diskHigh
				st.CPUPeak = t.cpuPeak
			}
			if snap, can := t.rec.(recommend.StateSnapshotter); can {
				st.HasState = true
				st.State = snap.SnapshotState()
			}
			ok = true
		})
		if !ok {
			continue
		}
		if err := enc.Encode(st); err != nil {
			return err
		}
	}

	tmp, err := os.CreateTemp(filepath.Dir(path), ".snapshot-*")
	if err != nil {
		return fmt.Errorf("serve: snapshot: %w", err)
	}
	if _, err := tmp.Write(buf.Bytes()); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("serve: snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("serve: snapshot: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("serve: snapshot: %w", err)
	}
	s.opts.Log.Infof("snapshot: %d tenants → %s", len(ids), path)
	return nil
}

// restoreIfPresent loads the checkpoint at path when one exists; a
// missing file is a cold start, not an error.
func (s *Server) restoreIfPresent(path string) error {
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("serve: restore: %w", err)
	}
	defer f.Close()
	return s.Restore(f)
}

// backfillV1Decisions restores the CPU allocation of a v1 tenant line's
// decisions, which v1 wrote under pre-vector keys
// (core.Decision.BackfillV1).
func backfillV1Decisions(line []byte, st *recommend.State) error {
	var v1 struct {
		State struct {
			Memo         struct{ Decision json.RawMessage } `json:"memo"`
			LastDecision json.RawMessage                    `json:"last_decision"`
		} `json:"state"`
	}
	if err := json.Unmarshal(line, &v1); err != nil {
		return err
	}
	if err := st.Memo.Decision.BackfillV1(v1.State.Memo.Decision); err != nil {
		return err
	}
	return st.LastDecision.BackfillV1(v1.State.LastDecision)
}

// Restore rebuilds the tenant map from a Snapshot stream. Each tenant is
// reconstructed from its config (same policy, same knobs) and its
// serialised state is restored, so the first post-restore decision is
// bit-identical to the one the snapshotted server would have made next —
// the round-trip contract pinned by TestSnapshotRestartBitIdentical.
func (s *Server) Restore(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	if !sc.Scan() {
		return fmt.Errorf("serve: restore: empty snapshot")
	}
	var hdr snapshotHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return fmt.Errorf("serve: restore: header: %w", err)
	}
	if hdr.Format != "caasper-serve" || (hdr.Version != snapshotVersion && hdr.Version != snapshotVersionV1) {
		return fmt.Errorf("serve: restore: unsupported snapshot format %q version %d", hdr.Format, hdr.Version)
	}
	n := 0
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var st snapshotTenant
		if err := json.Unmarshal(sc.Bytes(), &st); err != nil {
			return fmt.Errorf("serve: restore: tenant line %d: %w", n+1, err)
		}
		if hdr.Version == snapshotVersionV1 && st.HasState {
			if err := backfillV1Decisions(sc.Bytes(), &st.State); err != nil {
				return fmt.Errorf("serve: restore: tenant line %d: %w", n+1, err)
			}
		}
		t, err := s.newTenant(st.ID, st.Config)
		if err != nil {
			return fmt.Errorf("serve: restore: tenant %q: %w", st.ID, err)
		}
		t.cores = st.Cores
		t.minute = st.Minute
		t.seq = st.Seq
		t.log = st.Log
		if t.cfg.multi() {
			// v1 lines carry no multi fields: zero grants keep the
			// newTenant config defaults, peaks restart cold.
			if st.RAMGB > 0 {
				t.ramGB = st.RAMGB
			}
			if st.DiskGB > 0 {
				t.diskGB = st.DiskGB
			}
			if st.Replicas > 0 {
				t.replicas = st.Replicas
			}
			t.ramPeak = st.RAMPeak
			t.diskHigh = st.DiskHigh
			t.cpuPeak = st.CPUPeak
		}
		if st.HasState {
			snap, can := t.rec.(recommend.StateSnapshotter)
			if !can {
				return fmt.Errorf("serve: restore: tenant %q: policy %q lost its snapshot capability", st.ID, st.Config.Policy)
			}
			if err := snap.RestoreState(st.State); err != nil {
				return fmt.Errorf("serve: restore: tenant %q: %w", st.ID, err)
			}
		}
		sh := s.shardFor(st.ID)
		sh.mu.Lock()
		sh.tenants[st.ID] = t
		sh.mu.Unlock()
		n++
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("serve: restore: %w", err)
	}
	if n != hdr.Tenants {
		return fmt.Errorf("serve: restore: snapshot truncated: header says %d tenants, found %d", hdr.Tenants, n)
	}
	s.opts.Log.Infof("restore: %d tenants from snapshot", n)
	return nil
}
