package core

import (
	"fmt"
	"strings"
	"testing"

	"gsim/internal/faultpoint"
	"gsim/internal/ir"
)

// cacheDesign builds a small distinct design per index (the register count
// varies, so each compiles to a different nonzero byte cost).
func cacheDesign(t *testing.T, idx int) *ir.Graph {
	t.Helper()
	b := ir.NewBuilder(fmt.Sprintf("d%d", idx))
	en := b.Input("en", 1)
	prev := b.C(8, 1)
	for r := 0; r < 4+idx; r++ {
		reg := b.Reg(fmt.Sprintf("r%d", r), 8)
		b.SetNext(reg, b.Mux(b.R(en), b.AddW(b.R(reg), prev, 8), b.R(reg)))
		prev = b.R(reg)
	}
	b.Output("o", prev)
	return b.G
}

func mustCompile(t *testing.T, c *CompileCache, idx int) (*CompiledDesign, string) {
	t.Helper()
	g := cacheDesign(t, idx)
	key := CacheKey(fmt.Sprintf("test:%d", idx), GSIM())
	d, _, err := c.Get(key, func() (*CompiledDesign, error) { return CompileDesign(g, GSIM()) })
	if err != nil {
		t.Fatal(err)
	}
	return d, key
}

// TestCacheEvictionUnderBudget is the governance acceptance check: a 3×
// overcommit workload (entries released as their sessions would close) keeps
// residency at or under the configured byte budget, while entries with live
// references are never evicted.
func TestCacheEvictionUnderBudget(t *testing.T) {
	c := NewCompileCache()
	d0, k0 := mustCompile(t, c, 0)
	unit := designCost(d0)
	if unit <= 0 {
		t.Fatal("design cost not positive")
	}
	budget := 2 * unit
	c.SetBudget(budget)
	c.Release(k0)

	// Overcommit ~3x the budget with released (unpinned) designs: the cache
	// must stay within budget by evicting cold entries.
	for i := 1; i < 8; i++ {
		_, k := mustCompile(t, c, i)
		c.Release(k)
		if used, _, _ := c.Governance(); used > budget {
			t.Fatalf("after design %d: used %d > budget %d", i, used, budget)
		}
	}
	if _, _, ev := c.Governance(); ev == 0 {
		t.Fatal("overcommit produced no evictions")
	}

	// Pinned designs are immune: hold references on several entries whose
	// joint cost exceeds the budget; the cache runs over budget rather than
	// evicting anything pinned.
	c2 := NewCompileCache()
	keys := make([]string, 0, 6)
	for i := 0; i < 6; i++ {
		_, k := mustCompile(t, c2, i)
		keys = append(keys, k)
	}
	c2.SetBudget(unit) // far below the pinned total
	if got := c2.Len(); got != 6 {
		t.Fatalf("pinned entries evicted: %d of 6 remain", got)
	}
	if _, _, ev := c2.Governance(); ev != 0 {
		t.Fatalf("%d evictions of refcounted designs", ev)
	}
	// Releasing the pins lets the cache settle back under budget.
	for _, k := range keys {
		c2.Release(k)
	}
	if used, _, _ := c2.Governance(); used > unit {
		t.Fatalf("after release: used %d > budget %d", used, unit)
	}
}

// TestCacheLRUOrder pins the recency policy: touching an entry saves it, the
// coldest unpinned entry goes first.
func TestCacheLRUOrder(t *testing.T) {
	c := NewCompileCache()
	dA, kA := mustCompile(t, c, 0)
	_, kB := mustCompile(t, c, 1)
	c.Release(kA)
	c.Release(kB)
	unit := designCost(dA)

	// Touch A so B is the LRU, then shrink the budget to one entry's cost:
	// B must be the victim.
	g := cacheDesign(t, 0)
	if _, hit, err := c.Get(kA, func() (*CompiledDesign, error) { return CompileDesign(g, GSIM()) }); err != nil || !hit {
		t.Fatalf("re-get A: hit=%v err=%v", hit, err)
	}
	c.Release(kA)
	c.SetBudget(unit + int64(unit)/2)

	gB := cacheDesign(t, 1)
	compiled := false
	if _, hit, err := c.Get(kB, func() (*CompiledDesign, error) {
		compiled = true
		return CompileDesign(gB, GSIM())
	}); err != nil || hit {
		t.Fatalf("get evicted B: hit=%v err=%v", hit, err)
	} else if !compiled {
		t.Fatal("B was served without recompiling — it should have been evicted")
	}
	c.Release(kB)
}

// TestCacheCompileFailFaultpoint pins the injected-compile-failure path: the
// error is cached (deterministic compile), holds no reference, and does not
// poison later distinct keys.
func TestCacheCompileFailFaultpoint(t *testing.T) {
	defer faultpoint.Reset()
	c := NewCompileCache()
	g := cacheDesign(t, 0)
	faultpoint.Arm(faultpoint.CompileFail, 1)
	_, _, err := c.Get("bad", func() (*CompiledDesign, error) { return CompileDesign(g, GSIM()) })
	if err == nil {
		t.Fatal("injected compile failure did not surface")
	}
	// Same key: cached error, compile not retried.
	_, hit, err2 := c.Get("bad", func() (*CompiledDesign, error) {
		t.Fatal("retried a deterministic failed compile")
		return nil, nil
	})
	if err2 == nil || !hit {
		t.Fatalf("cached failure: hit=%v err=%v", hit, err2)
	}
	// A different key compiles fine; the fault was one-shot.
	if _, k := mustCompile(t, c, 1); k == "" {
		t.Fatal("unexpected")
	}
}

// TestCachePanickingCompile: a compile that panics must fail its key like a
// returned error — cached, holding no reference — instead of escaping Get
// and leaving an entry with neither design nor error behind.
func TestCachePanickingCompile(t *testing.T) {
	c := NewCompileCache()
	_, _, err := c.Get("boom", func() (*CompiledDesign, error) { panic("compile bug") })
	if err == nil || !strings.Contains(err.Error(), "compile bug") {
		t.Fatalf("panic not surfaced as an error: %v", err)
	}
	_, hit, err := c.Get("boom", func() (*CompiledDesign, error) {
		t.Fatal("retried a panicked compile")
		return nil, nil
	})
	if err == nil || !hit {
		t.Fatalf("second Get of a panicked key: hit=%v err=%v", hit, err)
	}
	c.mu.Lock()
	refs := c.entries["boom"].refs
	c.mu.Unlock()
	if refs != 0 {
		t.Fatalf("panicked compile left %d references pinned", refs)
	}
	// The cache still serves other keys.
	if _, k := mustCompile(t, c, 0); k == "" {
		t.Fatal("unexpected")
	}
}
