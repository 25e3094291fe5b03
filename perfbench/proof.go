package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/adversary"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/model"
	"repro/internal/valency"
)

const protocol = core.ProtocolDiskRace

// proofRunner runs the adversary on DiskRace with n processes, each
// operation on a fresh engine with a cold memo and the CLI's defaults
// (Workers 0 = GOMAXPROCS, no observability scope). full selects Theorem 1;
// otherwise the operation is Proposition 2 plus Lemma 4, the covering
// construction.
type proofRunner struct {
	m    model.Machine
	opts explore.Options
	n    int
	full bool
	// ref is the last untraced Theorem 1 witness: a traced operation,
	// which rebuilds the proof from the public lemma calls, must reproduce
	// its execution.
	ref *adversary.Theorem1Witness
}

// newProofRunner resolves the protocol and runs one warm-up operation at
// warmN processes through the same checks, so the timed loop starts with
// every code path exercised and the heap grown.
func newProofRunner(ctx context.Context, n, warmN int, full bool) (*proofRunner, error) {
	m, opts, err := core.Machine(protocol)
	if err != nil {
		return nil, err
	}
	warm := &proofRunner{m: m, opts: opts, n: warmN, full: full}
	if err := warm.op(ctx, nil); err != nil {
		return nil, fmt.Errorf("warm-up at n=%d: %w", warmN, err)
	}
	return &proofRunner{m: m, opts: opts, n: n, full: full}, nil
}

func (p *proofRunner) engine() *adversary.Engine {
	return adversary.New(valency.New(p.opts))
}

func (p *proofRunner) op(ctx context.Context, l layers) error {
	if !p.full {
		_, _, err := p.covering(ctx, p.engine(), l)
		return err
	}
	if l != nil {
		return p.tracedTheorem1(ctx, l)
	}
	w, err := p.engine().Theorem1(ctx, p.m, p.n)
	if err != nil {
		return err
	}
	if err := verify(p.m, w); err != nil {
		return err
	}
	p.ref = w
	return nil
}

// verify is the check every proof passes: an engine-independent replay of
// the witness, covering at least n-1 distinct registers.
func verify(m model.Machine, w *adversary.Theorem1Witness) error {
	if err := check.VerifyWitness(m, w); err != nil {
		return err
	}
	if w.Registers < w.N-1 {
		return fmt.Errorf("witness covers %d registers, want >= %d", w.Registers, w.N-1)
	}
	return nil
}

// timed runs one lemma call, recording its wall time and the valency
// oracle's work during it under the lemma's name.
func timed(l layers, e *adversary.Engine, name string, call func() error) error {
	if l == nil {
		return call()
	}
	before := e.Oracle().Stats()
	t0 := time.Now()
	err := call()
	sec := time.Since(t0).Seconds()
	after := e.Oracle().Stats()
	l["adversary."+name+"_s"] += sec
	l["valency.queries"] += float64(after.Queries - before.Queries)
	l["valency.hits"] += float64(after.Hits - before.Hits)
	l["valency.solo_queries"] += float64(after.SoloQueries - before.SoloQueries)
	l["valency.solo_hits"] += float64(after.SoloHits - before.SoloHits)
	l["valency.configs"] += float64(after.Configs - before.Configs)
	l["valency.oracle_s"] += sec
	l["valency.deepest_level"] = float64(after.DeepestLevel)
	return err
}

// covering runs Proposition 2 and Lemma 4 over all n processes and checks
// Lemma 4's conclusion by replay: Alpha from the initial configuration
// reaches Config, and the n-2 processes outside the bivalent pair Q cover
// distinct registers there, as Covered claims.
func (p *proofRunner) covering(ctx context.Context, e *adversary.Engine, l layers) (model.Config, *adversary.Lemma4Result, error) {
	var initial model.Config
	err := timed(l, e, "initial", func() (err error) {
		initial, err = e.InitialBivalent(ctx, p.m, p.n)
		return err
	})
	if err != nil {
		return initial, nil, err
	}
	var l4 *adversary.Lemma4Result
	err = timed(l, e, "lemma4", func() (err error) {
		l4, err = e.Lemma4(ctx, initial, allProcs(p.n))
		return err
	})
	if err != nil {
		return initial, nil, err
	}
	if l != nil {
		l["adversary.rounds"] = float64(l4.Rounds)
	}
	return initial, l4, checkLemma4(initial, l4, p.n)
}

func checkLemma4(initial model.Config, l4 *adversary.Lemma4Result, n int) error {
	if len(l4.Q) != 2 {
		return fmt.Errorf("lemma 4: Q=%v, want a pair", l4.Q)
	}
	final := model.RunPath(initial, l4.Alpha)
	if final.Key() != l4.Config.Key() {
		return fmt.Errorf("lemma 4: replaying Alpha (%d steps) does not reach Config", len(l4.Alpha))
	}
	rest := model.Without(allProcs(n), l4.Q...)
	if len(l4.Covered) != len(rest) {
		return fmt.Errorf("lemma 4: %d covering processes, want %d", len(l4.Covered), len(rest))
	}
	used := make(map[int]bool, len(rest))
	for _, pid := range rest {
		reg, ok := final.CoveredRegister(pid)
		if !ok || used[reg] || l4.Covered[pid] != reg {
			return fmt.Errorf("lemma 4: p%d does not cover a distinct register (claimed %d)", pid, l4.Covered[pid])
		}
		used[reg] = true
	}
	return nil
}

// tracedTheorem1 builds Theorem 1 from the public lemma calls, composed
// exactly as Engine.Theorem1 composes them, timing each call. The result
// must equal the last untraced Engine.Theorem1 witness step for step, so
// the per-lemma times describe the same proof.
func (p *proofRunner) tracedTheorem1(ctx context.Context, l layers) error {
	e := p.engine()
	initial, l4, err := p.covering(ctx, e, l)
	if err != nil {
		return err
	}
	all := allProcs(p.n)
	r := model.Without(all, l4.Q...)
	var phi model.Path
	var q int
	err = timed(l, e, "lemma3", func() (err error) {
		phi, q, err = e.Lemma3(ctx, l4.Config, all, r)
		return err
	})
	if err != nil {
		return err
	}
	var z int
	for _, pid := range l4.Q {
		if pid != q {
			z = pid
		}
	}
	var zeta model.Path
	var outside int
	err = timed(l, e, "lemma2", func() (err error) {
		zeta, outside, err = e.Lemma2(ctx, model.RunPath(l4.Config, phi), r, z)
		return err
	})
	if err != nil {
		return err
	}
	w := &adversary.Theorem1Witness{
		Protocol:  p.m.Name(),
		N:         p.n,
		Inputs:    mixedInputs(p.n),
		Execution: model.ConcatPaths(l4.Alpha, phi, zeta),
		Covered:   make(map[int]int, p.n-1),
		Rounds:    l4.Rounds,
	}
	final := model.RunPath(initial, w.Execution)
	for _, pid := range append(r[:len(r):len(r)], z) {
		if reg, ok := final.CoveredRegister(pid); ok {
			w.Covered[pid] = reg
		}
	}
	w.Registers = len(w.Covered)
	if w.Covered[z] != outside {
		return fmt.Errorf("theorem 1: p%d poised on register %d, lemma 2 forced %d", z, w.Covered[z], outside)
	}
	t0 := time.Now()
	err = verify(p.m, w)
	l["check.verify_s"] = time.Since(t0).Seconds()
	if err != nil {
		return err
	}
	return sameProof(p.ref, w)
}

// sameProof reports whether the lemma-by-lemma replay w built the proof
// ref that Engine.Theorem1 built.
func sameProof(ref, w *adversary.Theorem1Witness) error {
	if ref == nil {
		return fmt.Errorf("theorem 1 replay: no untraced proof to compare with")
	}
	if fmt.Sprint(ref.Execution) != fmt.Sprint(w.Execution) {
		return fmt.Errorf("theorem 1 replay: execution differs from Engine.Theorem1 (%d vs %d steps)", len(w.Execution), len(ref.Execution))
	}
	if fmt.Sprint(ref.Covered) != fmt.Sprint(w.Covered) || ref.Rounds != w.Rounds {
		return fmt.Errorf("theorem 1 replay: covered %v in %d rounds, Engine.Theorem1 covered %v in %d",
			w.Covered, w.Rounds, ref.Covered, ref.Rounds)
	}
	return nil
}

// mixedInputs is Proposition 2's input vector, the one InitialBivalent
// starts from: p0 proposes 0, every other process 1.
func mixedInputs(n int) []model.Value {
	in := make([]model.Value, n)
	for i := range in {
		in[i] = valency.V1
	}
	in[0] = valency.V0
	return in
}

func allProcs(n int) []int {
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	return all
}
