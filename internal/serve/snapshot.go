package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"

	"caasper/internal/parallel"
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

// snapshotBatch is how many tenant lines one parallel step encodes per
// worker, or decodes in all: it bounds the checkpoint bytes a Snapshot or
// Restore holds at once to a few hundred lines per worker, whatever the
// tenant count. A restore batch also ends once its lines pass
// restoreBatchBytes, so a stream of huge lines holds one line more than
// that at most, not snapshotBatch of them.
const (
	snapshotBatch     = 256
	restoreBatchBytes = 4 << 20
)

// Snapshot checkpoints every tenant to path as versioned NDJSON: one
// header line, then one line per tenant in sorted ID order. The write is
// atomic (temp file + rename), so a crash mid-snapshot leaves the
// previous checkpoint intact. Each tenant serialises under its own
// lock; in-flight batches for other tenants keep draining.
//
// Lines are encoded in rounds: each worker encodes a contiguous run of
// the round's sorted IDs into its own buffer, and the buffers are
// written in ID order, so the file is byte-identical for every worker
// count.
func (s *Server) Snapshot(path string) error {
	ids := s.tenantIDs()
	tmp, err := os.CreateTemp(filepath.Dir(path), ".snapshot-*")
	if err != nil {
		return fmt.Errorf("serve: snapshot: %w", err)
	}
	if err := s.writeSnapshot(tmp, ids); err != nil {
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

// writeSnapshot writes the header and the tenant lines of ids to w.
func (s *Server) writeSnapshot(w io.Writer, ids []string) error {
	workers := parallel.Workers(0, len(ids))
	bufs := make([]bytes.Buffer, workers)
	encs := make([]*json.Encoder, workers)
	for k := range encs {
		encs[k] = json.NewEncoder(&bufs[k])
		encs[k].SetEscapeHTML(false)
	}
	if err := encs[0].Encode(snapshotHeader{Format: "caasper-serve", Version: snapshotVersion, Tenants: len(ids)}); err != nil {
		return err
	}
	if _, err := w.Write(bufs[0].Bytes()); err != nil {
		return err
	}
	for lo := 0; lo < len(ids); lo += workers * snapshotBatch {
		round := ids[lo:min(lo+workers*snapshotBatch, len(ids))]
		per := (len(round) + workers - 1) / workers
		err := parallel.ForEach(context.TODO(), workers, workers, func(k int) error {
			bufs[k].Reset()
			for _, id := range round[min(k*per, len(round)):min((k+1)*per, len(round))] {
				if err := s.encodeTenant(encs[k], id); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		for k := range bufs {
			if _, err := w.Write(bufs[k].Bytes()); err != nil {
				return err
			}
		}
	}
	return nil
}

// encodeTenant encodes one tenant's checkpoint line under its lock; a
// tenant that vanished since the ID listing writes nothing.
func (s *Server) encodeTenant(enc *json.Encoder, id string) error {
	var err error
	s.lookupQuiet(id, func(t *tenantState) {
		st := snapshotTenant{
			ID:     t.id,
			Config: t.cfg,
			Cores:  t.cores,
			Minute: t.minute,
			Seq:    t.seq,
			Log:    t.log.oldestFirst(),
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
		err = enc.Encode(st)
	})
	return err
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
//
// Lines are read in bounded batches (snapshotBatch lines, or
// restoreBatchBytes) and each batch is decoded in parallel; an error
// names the lowest failing line, whatever the worker count. Restore is
// all-or-nothing: tenants join the shard maps only after the whole
// stream has decoded, every ID is unique and the header's tenant count
// matches, so a failed Restore leaves the server without a single
// restored tenant.
func (s *Server) Restore(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 64<<20)
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

	var (
		tenants []*tenantState
		seen    = make(map[string]struct{})
		arena   []byte // the batch's lines, back to back
		ends    []int  // ends[i] is line i's end in arena
	)
	// flush decodes the batch in parallel, then checks IDs in line order,
	// so the error reported is the lowest failing line's.
	flush := func() error {
		first := len(tenants) + 1 // the batch's first tenant line
		batch, err := parallel.Map(context.TODO(), len(ends), 0, func(i int) (*tenantState, error) {
			lo := 0
			if i > 0 {
				lo = ends[i-1]
			}
			return s.restoreTenant(arena[lo:ends[i]], first+i, hdr.Version)
		})
		for i, t := range batch {
			if t == nil {
				return err // the lowest failing line: every earlier one decoded
			}
			if _, dup := seen[t.id]; dup {
				return fmt.Errorf("serve: restore: duplicate tenant %q (line %d)", t.id, first+i)
			}
			seen[t.id] = struct{}{}
			tenants = append(tenants, t)
		}
		arena, ends = arena[:0], ends[:0]
		return nil
	}
	for sc.Scan() {
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		arena = append(arena, line...)
		ends = append(ends, len(arena))
		if len(ends) == snapshotBatch || len(arena) >= restoreBatchBytes {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("serve: restore: %w", err)
	}
	if err := flush(); err != nil {
		return err
	}
	if len(tenants) != hdr.Tenants {
		return fmt.Errorf("serve: restore: snapshot truncated: header says %d tenants, found %d", hdr.Tenants, len(tenants))
	}
	for _, t := range tenants {
		sh := s.shardFor(t.id)
		sh.mu.Lock()
		sh.tenants[t.id] = t
		sh.mu.Unlock()
	}
	s.opts.Log.Infof("restore: %d tenants from snapshot", len(tenants))
	return nil
}

// restoreTenant rebuilds one tenant from its checkpoint line (tenant
// line number no) without publishing it. It returns a nil tenant exactly
// when it fails.
func (s *Server) restoreTenant(line []byte, no, version int) (*tenantState, error) {
	var st snapshotTenant
	if err := json.Unmarshal(line, &st); err != nil {
		return nil, fmt.Errorf("serve: restore: tenant line %d: %w", no, err)
	}
	if version == snapshotVersionV1 && st.HasState {
		if err := backfillV1Decisions(line, &st.State); err != nil {
			return nil, fmt.Errorf("serve: restore: tenant line %d: %w", no, err)
		}
	}
	if err := checkDecisionLog(st.Log, st.Seq); err != nil {
		return nil, fmt.Errorf("serve: restore: tenant line %d: %w", no, err)
	}
	t, err := s.newTenant(st.ID, st.Config)
	if err != nil {
		return nil, fmt.Errorf("serve: restore: tenant %q: %w", st.ID, err)
	}
	t.cores = st.Cores
	t.minute = st.Minute
	t.seq = st.Seq
	t.log.restore(st.Log, s.opts.DecisionLogSize)
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
			return nil, fmt.Errorf("serve: restore: tenant %q: policy %q lost its snapshot capability", st.ID, st.Config.Policy)
		}
		if err := snap.RestoreState(st.State); err != nil {
			return nil, fmt.Errorf("serve: restore: tenant %q: %w", st.ID, err)
		}
	}
	return t, nil
}
