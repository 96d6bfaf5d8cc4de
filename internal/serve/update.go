package serve

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dataset"
)

// Incremental serving updates: an `update` wire op trains against the live
// registry entry (core.Update: leaf refinement for DT/RF, warm-start
// boosting rounds for GBDT) and installs the result as version+1.  Entries
// are immutable, so the swap is naturally torn-read free — every in-flight
// prediction batch is pinned to the entry it was admitted under and
// answers at exactly version N or N+1, never a mix.  The update chain runs
// on one reserved lane while the others keep serving; their training data
// is then synced with a purely local AppendSamples phase so a later absorb
// sees the same union everywhere.

// appendPartitions slices flat sample rows (global column order) into
// per-client partitions for core.Update.  Labels ride every partition —
// only the super client reads them, and the serving layer doesn't need to
// know which client that is.
func appendPartitions(feats [][]int, width int, rows [][]float64, labels []float64) ([]*dataset.Partition, error) {
	if len(rows) == 0 {
		return nil, fmt.Errorf("serve: update carries no samples")
	}
	if len(labels) != len(rows) {
		return nil, fmt.Errorf("serve: update has %d samples but %d labels", len(rows), len(labels))
	}
	for _, row := range rows {
		if len(row) != width {
			return nil, fmt.Errorf("serve: sample has %d features, federation has %d", len(row), width)
		}
	}
	parts := make([]*dataset.Partition, len(feats))
	for c, fs := range feats {
		parts[c] = &dataset.Partition{
			Client:   c,
			Features: fs,
			N:        len(rows),
			X:        localRows(fs, rows),
			Y:        append([]float64(nil), labels...),
		}
	}
	return parts, nil
}

// localRows slices flat rows (global column order) down to one client's
// feature columns.
func localRows(feats []int, rows [][]float64) [][]float64 {
	out := make([][]float64, len(rows))
	for t, row := range rows {
		local := make([]float64, len(feats))
		for j, f := range feats {
			local[j] = row[f]
		}
		out[t] = local
	}
	return out
}

// Update absorbs appended samples (flat rows in global column order, one
// label each) into the named model and installs the result as version+1.
// The update chain is routed to one reserved live idle lane (waiting for
// one to free up if need be) while the other lanes keep serving; on success
// every other live lane's partitions are synced with the same appended rows
// (a purely local phase), so they join every lane's training partitions for
// later absorbs.  Predictions admitted before the install keep serving the
// prior version.  addTrees sets the extra boosting rounds for GBDT models
// (<= 0 selects 1, at most core.MaxAddTrees) and is ignored for DT/RF.
func (s *Service) Update(name string, rows [][]float64, labels []float64, addTrees int) (*Entry, error) {
	entry, err := s.Lookup(name)
	if err != nil {
		return nil, err
	}
	parts, err := appendPartitions(s.feats, s.width, rows, labels)
	if err != nil {
		return nil, err
	}

	ln, sess, err := s.reserveLane()
	if err != nil {
		return nil, err
	}
	mdl, err := core.Update(sess, core.UpdateSpec{Model: entry.Model, Append: parts, AddTrees: addTrees})

	s.mu.Lock()
	ln.busy = false
	s.laneFree.Broadcast()
	if err != nil {
		if !sess.Healthy() {
			// The chain killed the lane: same degradation as a prediction
			// batch dying on it.
			s.laneDiedLocked(ln, sess)
			s.reapLocked()
			err = &UnavailableError{RetryAfter: s.cfg.RetryAfter}
		}
		s.mu.Unlock()
		s.kick()
		return nil, err
	}
	s.stats.Updates++
	// Remember the batch: a rebuilt lane comes from the factory with the
	// original data and must replay every absorb before serving.
	s.appends = append(s.appends, parts)
	var others []*lane
	var sessions []*core.Session
	for _, o := range s.lanes {
		if o != ln && o.healthy {
			others = append(others, o)
			sessions = append(sessions, o.sess)
		}
	}
	s.mu.Unlock()
	s.kick()

	// Sync the serving lanes' partitions (no protocol traffic; serializes
	// with any in-flight batch at phase granularity).  A lane that fails
	// the sync is treated like a lane death: rebuild replays the log.
	for i, o := range others {
		if core.AppendSamples(sessions[i], parts) != nil {
			s.mu.Lock()
			s.laneDiedLocked(o, sessions[i])
			s.mu.Unlock()
		}
	}

	ne, err := s.Register(name, mdl)
	if err == nil && s.cfg.Journal != nil {
		s.cfg.Journal(ne)
	}
	return ne, err
}

// reserveLane claims a live idle lane (and its session) for an update
// chain, marking it busy so the scheduler routes micro-batches around it.
// It waits for one to free up — the scheduler dispatches nothing while a
// reservation is parked, so the next lane to free is this caller's even
// under a standing prediction backlog — and gives up only when the service
// drains or loses every lane.
func (s *Service) reserveLane() (*lane, *core.Session, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reserving++
	defer func() {
		s.reserving--
		s.kick() // the scheduler held back for us; let it look again
	}()
	for {
		if s.draining {
			return nil, nil, ErrDraining
		}
		if s.reapLocked() == 0 {
			return nil, nil, &UnavailableError{RetryAfter: s.cfg.RetryAfter}
		}
		if ln := s.idleLaneLocked(); ln != nil {
			ln.busy = true
			return ln, ln.sess, nil
		}
		s.laneFree.Wait()
	}
}
