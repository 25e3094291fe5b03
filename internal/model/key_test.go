package model

import (
	"strconv"
	"strings"
	"testing"
)

// keyedState is a plain State whose AppendKey is hand-rolled; refKey is its
// string reference.
type keyedState struct {
	pid, left int
}

func (s keyedState) Pending() Op {
	if s.left == 0 {
		return Op{Kind: OpDecide, Arg: "d"}
	}
	return Op{Kind: OpWrite, Reg: s.pid, Arg: Value(strconv.Itoa(s.left))}
}

func (s keyedState) Next(Value) State { return keyedState{pid: s.pid, left: s.left - 1} }

func (s keyedState) AppendKey(dst []byte) []byte {
	dst = append(dst, 'k')
	dst = strconv.AppendInt(dst, int64(s.pid), 10)
	dst = append(dst, '.')
	return strconv.AppendInt(dst, int64(s.left), 10)
}

func (s keyedState) refKey() string { return "k" + strconv.Itoa(s.pid) + "." + strconv.Itoa(s.left) }

type keyMachine struct{}

func (keyMachine) Name() string        { return "keytest" }
func (keyMachine) Registers(n int) int { return n }
func (keyMachine) Init(n, pid int, input Value) State {
	budget, _ := strconv.Atoi(string(input))
	return keyedState{pid: pid, left: budget}
}

// configKeyRef is the reference configuration encoding, built field by
// field from the states' string keys: each state key and each register
// value terminated by keySepField, the two sections divided by
// keySepSection.
func configKeyRef(c Config) string {
	var b strings.Builder
	for _, s := range c.states {
		b.WriteString(s.(keyedState).refKey())
		b.WriteByte(keySepField)
	}
	b.WriteByte(keySepSection)
	for _, v := range c.regs {
		b.WriteString(string(v))
		b.WriteByte(keySepField)
	}
	return b.String()
}

// TestKeyToMatchesKey holds Config.AppendKey to its contract: appended into
// reused scratch, and after an existing prefix, the bytes equal the
// reference encoding on every configuration along an execution, and
// Config.Key is the same bytes as a string.
func TestKeyToMatchesKey(t *testing.T) {
	c := NewConfig(keyMachine{}, []Value{"2", "3"})
	var buf []byte
	for i := 0; i < 6; i++ {
		want := configKeyRef(c)
		buf = c.AppendKey(buf[:0])
		if string(buf) != want {
			t.Fatalf("step %d: AppendKey wrote %q, reference is %q", i, buf, want)
		}
		if got := c.Key(); got != want {
			t.Fatalf("step %d: Key returns %q, reference is %q", i, got, want)
		}
		if got := string(c.AppendKey([]byte("pre"))); got != "pre"+want {
			t.Fatalf("step %d: AppendKey after a prefix wrote %q", i, got)
		}
		pid := i % 2
		if _, done := c.Decided(pid); !done {
			c = c.StepDet(pid)
		}
	}
}
