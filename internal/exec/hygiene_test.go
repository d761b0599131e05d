package exec

// Shared post-incident hygiene helpers for the exec test suite: the
// goroutine-leak check (internal/leaktest, also used by the facade
// tests) plus the pool-idle check — after a cancel/abort, a fresh query
// on the same pool or engine must still complete. Register
// checkQueryHygiene at the top of every test that spawns a query.

import (
	"context"
	"testing"

	"hierdb/internal/leaktest"
	"hierdb/internal/vec"
)

// drainRows consumes a handle's columnar output stream and materializes
// it as rows — the test-side equivalent of the facade's Collect.
func drainRows(h *Handle) []Row {
	var out []Row
	var arena vec.Arena
	for b := range h.Out() {
		out = b.AppendRows(out, &arena)
	}
	return out
}

// checkQueryHygiene registers the suite's goroutine-leak check. Call it
// before creating pools or engines: cleanups run LIFO, so the check
// runs after the test's Close cleanups have released the workers.
func checkQueryHygiene(t *testing.T) {
	t.Helper()
	leaktest.Check(t, 2)
}

// submitFunc is the Submit surface of a Nodes engine.
type submitFunc func(context.Context, Node, Options) (*Handle, error)

// verifyIdle proves a pool or engine still serves queries (the
// "pool-idle" check): a small fresh join must complete with the right
// cardinality. Pass ns.Submit.
func verifyIdle(t *testing.T, submit submitFunc) {
	t.Helper()
	h, err := submit(context.Background(), cancelPlan(1000), Options{})
	if err != nil {
		t.Fatalf("post-incident query failed to submit: %v", err)
	}
	n := 0
	for batch := range h.Out() {
		n += batch.N
	}
	if err := h.Err(); err != nil || n != 1000 {
		t.Fatalf("post-incident query: %d rows, err %v", n, err)
	}
}
