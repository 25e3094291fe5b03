package dist

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"repro/internal/explore"
	"repro/internal/model"
)

// LevelStat summarises one BFS level of the merged run: how many distinct
// configurations were discovered at that depth and the XOR of their
// canonical fingerprints. XOR is order-independent, so the digest is
// identical however the level's configurations were split across slices,
// workers, or retries — and identical to the sequential run's.
type LevelStat struct {
	Fresh  int64
	Digest explore.Fingerprint
}

// RenderWitness renders the run's witness artifact. The text is a pure
// function of the explored space — protocol, process count, fingerprint
// version, cap, per-level counts and digests, totals — and deliberately
// mentions nothing about slices, workers, or recoveries: a distributed run
// that crashed and reassigned mid-flight must render byte-identically to
// an uninterrupted single-process run.
func RenderWitness(spec Spec, levels []LevelStat, totalSteps int64) []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "distributed reachability witness\n")
	fmt.Fprintf(&b, "protocol: %s\n", spec.Protocol)
	fmt.Fprintf(&b, "n: %d\n", spec.N)
	fmt.Fprintf(&b, "fingerprint: v%d\n", spec.FPVersion)
	fmt.Fprintf(&b, "max depth: %d\n", spec.MaxDepth)
	var total int64
	depth := 0
	for d, ls := range levels {
		fmt.Fprintf(&b, "level %d: configs=%d digest=%016x%016x\n", d, ls.Fresh, ls.Digest[0], ls.Digest[1])
		total += ls.Fresh
		if ls.Fresh > 0 {
			depth = d
		}
	}
	fmt.Fprintf(&b, "total configs: %d\n", total)
	fmt.Fprintf(&b, "total steps: %d\n", totalSteps)
	fmt.Fprintf(&b, "depth: %d\n", depth)
	return []byte(b.String())
}

// SequentialWitness runs the same reachability exploration as a
// distributed run described by spec — P-only BFS from root under opts,
// depth-capped by spec.MaxDepth — in this process, with explore.Reach, and
// renders its witness. It is the single-process reference a distributed
// run's witness must match byte for byte, and the oracle the e2e crash
// tests compare against.
func SequentialWitness(ctx context.Context, spec Spec, root model.Config, procs []int, opts explore.Options) ([]byte, error) {
	opts.MaxDepth = spec.MaxDepth
	var levels []LevelStat
	res, err := explore.Reach(ctx, root, procs, opts, func(v explore.Visit) bool {
		for len(levels) <= v.Depth {
			levels = append(levels, LevelStat{})
		}
		levels[v.Depth].Fresh++
		levels[v.Depth].Digest[0] ^= v.FP[0]
		levels[v.Depth].Digest[1] ^= v.FP[1]
		return true
	})
	if err != nil {
		// A depth cap is the run completing as specified, not a failure;
		// any other cap (configs, cancellation) is real.
		if !(spec.MaxDepth > 0 && errors.Is(err, explore.ErrCapped) && ctx.Err() == nil && res != nil && res.Depth <= spec.MaxDepth && !capIsConfigs(res, opts)) {
			return nil, err
		}
	}
	return RenderWitness(spec, levels, int64(res.Steps)), nil
}

// capIsConfigs reports whether the result stopped on the visited-configs
// budget rather than the depth cap.
func capIsConfigs(res *explore.Result, opts explore.Options) bool {
	max := opts.MaxConfigs
	if max <= 0 {
		max = explore.DefaultMaxConfigs
	}
	return res.Count >= max
}
