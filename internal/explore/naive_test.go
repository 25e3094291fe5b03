package explore

import "repro/internal/model"

// naiveReach is the differential oracle for Reach: a FIFO breadth-first
// search over whole configurations (Moves, Apply) that deduplicates on a
// set of string keys. Its visit order is Reach's single-worker order. It
// returns the key of every visited configuration in visit order and the
// number of transitions examined; capped reports that opts.MaxConfigs
// stopped it before the space was exhausted. Of opts only Identity and
// MaxConfigs apply.
func naiveReach(c model.Config, p []int, opts Options) (keys []string, steps int, capped bool) {
	seen := map[string]bool{}
	visit := func(cfg model.Config) bool {
		k := keyOf(opts, cfg)
		if seen[k] {
			return false
		}
		seen[k] = true
		keys = append(keys, k)
		return true
	}
	visit(c)
	for queue := []model.Config{c}; len(queue) > 0; queue = queue[1:] {
		for _, m := range Moves(queue[0], p) {
			steps++
			child := model.ApplyMove(queue[0], m)
			if !visit(child) {
				continue
			}
			if len(keys) >= opts.maxConfigs() {
				return keys, steps, true
			}
			queue = append(queue, child)
		}
	}
	return keys, steps, false
}

// keyOf returns c's state identity under opts as a freshly allocated
// string: opts.Identity's canonical key, or Config.Key when Identity is
// unset.
func keyOf(opts Options, c model.Config) string {
	if opts.Identity == nil {
		return c.Key()
	}
	return string(opts.Identity.AppendCanonicalKey(nil, c))
}

// fingerprintOf digests an already-materialised key string: the reference
// form of hasher.fingerprint, which appends the key into reused scratch
// (TestStreamingKeysMatchStringKeys holds the two equal).
func fingerprintOf(key string) Fingerprint {
	return mix128([]byte(key))
}
