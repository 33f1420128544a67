package bdd

import (
	"strings"
	"testing"

	"ttastartup/internal/obs"
)

// TestObsPublishing checks the manager's counter plumbing: cache probes
// and GCs land in the attached registry, and SnapshotStats agrees.
func TestObsPublishing(t *testing.T) {
	reg := obs.NewRegistry()
	tr := obs.NewTracer()
	m := New(8, Config{})
	m.SetObs(obs.Scope{Reg: reg, Trace: tr})

	// Build something with sharing so the op cache gets hits.
	f := m.Var(0)
	for i := 1; i < 8; i++ {
		f = m.Protect(m.Xor(f, m.Var(i)))
	}
	for i := 0; i < 4; i++ {
		m.Ite(f, m.Var(1), m.Var(2)) // repeated: second and later probes hit
	}
	m.GC(f)
	m.PublishObs()

	st := m.SnapshotStats()
	if st.CacheHits == 0 || st.CacheMisses == 0 {
		t.Fatalf("cache counters empty: %+v", st)
	}
	if st.GCs != 1 {
		t.Fatalf("GCs = %d, want 1", st.GCs)
	}
	snap := reg.Snapshot()
	if snap[obs.MBDDCacheHits] != int64(st.CacheHits) ||
		snap[obs.MBDDCacheMisses] != int64(st.CacheMisses) {
		t.Fatalf("registry cache counters %d/%d disagree with stats %+v",
			snap[obs.MBDDCacheHits], snap[obs.MBDDCacheMisses], st)
	}
	if snap[obs.MBDDUniqueSize] != int64(len(m.table)) || st.UniqueSize != len(m.table) {
		t.Fatalf("unique-size gauge %d, stats %d, want the table capacity %d",
			snap[obs.MBDDUniqueSize], st.UniqueSize, len(m.table))
	}
	if snap[obs.MBDDCacheEntries] != minCache {
		t.Fatalf("cache-size gauge %d, want %d", snap[obs.MBDDCacheEntries], minCache)
	}
	if snap[obs.MBDDGCs] != 1 {
		t.Fatalf("registry gc count = %d", snap[obs.MBDDGCs])
	}
	if snap[obs.MBDDGCPauseUS+".count"] != 1 {
		t.Fatalf("gc pause histogram count = %d", snap[obs.MBDDGCPauseUS+".count"])
	}
	if snap[obs.MBDDNodes] != int64(st.Nodes) || snap[obs.MBDDNodes] == 0 {
		t.Fatalf("node gauge %d vs stats %d", snap[obs.MBDDNodes], st.Nodes)
	}
	var trace strings.Builder
	if err := tr.WriteChrome(&trace); err != nil {
		t.Fatal(err)
	}
	if tr.EventCount() != 2 || !strings.Contains(trace.String(), obs.MBDDCacheEntries) {
		t.Fatalf("want the GC span and one cache-size sample, got %d events:\n%s", tr.EventCount(), trace.String())
	}

	// A second publish must flush only the delta, not re-add totals, and
	// samples the cache size only when it changed.
	m.PublishObs()
	if got := reg.Snapshot()[obs.MBDDCacheHits]; got != int64(st.CacheHits) {
		t.Fatalf("double publish re-added totals: %d vs %d", got, st.CacheHits)
	}
	if tr.EventCount() != 2 {
		t.Fatalf("unchanged cache size sampled again: %d events", tr.EventCount())
	}
}

// TestObsDisabled pins the no-scope fast path: everything still works
// and SnapshotStats still counts.
func TestObsDisabled(t *testing.T) {
	m := New(4, Config{})
	f := m.Protect(m.And(m.Var(0), m.Var(1)))
	m.And(m.Var(0), m.Var(1))
	m.GC(f)
	m.PublishObs()
	st := m.SnapshotStats()
	if st.CacheHits+st.CacheMisses == 0 || st.GCs != 1 {
		t.Fatalf("stats not counted without scope: %+v", st)
	}
}
