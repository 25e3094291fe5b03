package consensus

import (
	"context"
	"testing"

	"repro/internal/check"
	"repro/internal/model"
)

// TestReplayViolation prints the first checker counterexample step by step.
// It is a debugging aid kept under -run ReplayViolation -v; it never fails.
func TestReplayViolation(t *testing.T) {
	report, err := check.Consensus(context.Background(), Flood{}, 3, check.Options{SkipSolo: true})
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	if report.OK() {
		t.Skip("no violation to replay")
	}
	v := report.Violations[0]
	c := model.NewConfig(Flood{}, v.Inputs)
	t.Logf("inputs: %v", v.Inputs)
	for i, mv := range v.Path {
		op := c.State(mv.Pid).Pending()
		var in model.Value
		if op.Kind == model.OpRead {
			in = c.Register(op.Reg)
		}
		c = c.Step(mv.Pid, mv.Coin)
		t.Logf("%3d %v regs=%v", i, model.TraceStep{Pid: mv.Pid, Op: op, In: in}, c.Registers())
	}
	for pid := 0; pid < 3; pid++ {
		if val, ok := c.Decided(pid); ok {
			t.Logf("p%d decided %q", pid, string(val))
		} else {
			t.Logf("p%d state: %s", pid, c.State(pid).AppendKey(nil))
		}
	}
}
