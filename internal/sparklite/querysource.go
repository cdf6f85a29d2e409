package sparklite

import (
	"fmt"

	"scidp/internal/cluster"
	"scidp/internal/obs"
	"scidp/internal/rframe"
	"scidp/internal/rsql"
	"scidp/internal/sim"
)

// ArrayQuery distributes one compiled chunk-pushdown plan — the same
// ArrayPlan the local rsql.QueryArrays executor drives. The driver opens
// the table header-only, compiles the SQL, intersects WHERE predicates
// with the zone maps, and emits one partition per *surviving* chunk
// (skipped chunks never even become tasks); each executor task re-opens
// the table on its node, runs the fused single-pass scan over its chunk,
// and ships the partial back; the driver merges partials in chunk order
// via plan.Finalize, so the distributed result is byte-identical to the
// local one — and to the no-pushdown oracle's.
type ArrayQuery struct {
	// SQL is the query; its FROM name is whatever Open's table expects.
	SQL string
	// Mode selects pushdown or the full-scan oracle.
	Mode rsql.PushdownMode
	// Open returns the array table as seen from a node (nil node = the
	// driver, which only reads headers). Every node must see the same
	// schema and chunking.
	Open func(p *sim.Proc, node *cluster.Node) (rsql.ArrayTable, error)
	// Obs, when non-nil, receives the query counters and the per-query
	// span, with the scan stage's phase and task spans nested under it.
	Obs *obs.Registry

	plan      *rsql.ArrayPlan
	stats     *rsql.ScanStats
	survivors []int
	prepared  bool
}

// prepare opens the driver-side table, compiles the plan, and computes
// the skip-list — all header-only work.
func (s *ArrayQuery) prepare(p *sim.Proc) error {
	if s.prepared {
		return nil
	}
	t, err := s.Open(p, nil)
	if err != nil {
		return err
	}
	if s.plan, err = rsql.CompileArray(s.SQL, t.Columns()); err != nil {
		return err
	}
	s.stats, s.survivors = s.plan.Begin(t, s.Mode)
	s.prepared = true
	return nil
}

// Partitions implements Source: one partition per surviving chunk, keyed
// so Collect's stable key sort restores chunk order.
func (s *ArrayQuery) Partitions(p *sim.Proc) ([]*Partition, error) {
	if err := s.prepare(p); err != nil {
		return nil, err
	}
	out := make([]*Partition, len(s.survivors))
	for k, ci := range s.survivors {
		out[k] = &Partition{Index: k, Label: fmt.Sprintf("query#%d", ci), Payload: ci}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("sparklite: query plan pruned every chunk")
	}
	return out, nil
}

// Read implements Source: open the table on the executor's node, scan the
// partition's single chunk in one fused pass on the data plane, and ship
// the partial keyed by plan position.
func (s *ArrayQuery) Read(tc *TaskCtx, part *Partition) ([]Record, error) {
	t, err := s.Open(tc.Proc(), tc.Node())
	if err != nil {
		return nil, err
	}
	if pr, ok := t.(rsql.Projector); ok {
		pr.Project(s.plan.Refs())
	}
	ci := part.Payload.(int)
	t.Announce([]int{ci})
	ch, err := t.Read(ci)
	if err != nil {
		return nil, err
	}
	var partial *rsql.ChunkPartial
	var scanErr error
	t.Join(t.Fork(func() { partial, scanErr = s.plan.ScanChunk(ch) }))
	if scanErr != nil {
		return nil, scanErr
	}
	return []Record{{K: fmt.Sprintf("%08d", part.Index), V: partial}}, nil
}

// Run executes the distributed query end to end on sc and returns the
// merged frame plus the scan statistics.
func (s *ArrayQuery) Run(p *sim.Proc, sc *Context) (*rframe.Frame, *rsql.ScanStats, error) {
	if err := s.prepare(p); err != nil {
		return nil, nil, err
	}
	sp := s.plan.Span(s.Obs, "sparklite/query", s.Mode)
	if s.Obs != nil {
		defer p.SetSpan(p.SetSpan(sp))
	}
	var parts []*rsql.ChunkPartial
	if len(s.survivors) > 0 {
		rdd := sc.FromSource(s)
		rdd.obs = s.Obs
		recs, err := rdd.Collect(p)
		if err != nil {
			return nil, nil, err
		}
		parts = make([]*rsql.ChunkPartial, len(recs))
		for i, r := range recs {
			parts[i] = r.V.(*rsql.ChunkPartial)
		}
	}
	out, err := s.plan.End(parts, s.stats, s.Obs, sp)
	if err != nil {
		return nil, nil, err
	}
	return out, s.stats, nil
}
