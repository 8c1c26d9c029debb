package main

import (
	"fmt"
	"math"
	"time"
)

// runCheck checks the benchmark itself.
//
// A/A: two full sets of runs of the same code, back to back. Every
// end-to-end metric of every workload must agree within its own bound,
// and the simulated metrics of the flat two-rank workloads must repeat
// to the last digit.
//
// Known answers: changes whose effect is known in advance must show up
// where they should and nowhere else. Half the payload must halve the
// host time of the codec-bound workloads; a dataset MPC compresses 1.3x
// must turn p2p_mpc's gain into a loss; a delay in the benchmark's own
// wrapper around Engine.CompressAppend must appear in that rung's self
// time and in no rung below it.
func runCheck(o options) error {
	bad := 0
	fail := func(format string, a ...any) {
		bad++
		fmt.Printf("FAIL  "+format+"\n", a...)
	}
	pass := func(format string, a ...any) { fmt.Printf("ok    "+format+"\n", a...) }

	o.trace = false
	first, err := runSet(o)
	if err != nil {
		return err
	}
	second, err := runSet(o)
	if err != nil {
		return err
	}
	base := map[string]map[string]metric{}
	for i, a := range first {
		b := second[i]
		base[a.Workload] = a.EndToEnd
		if !a.Correct || !b.Correct {
			fail("%s: operations failed", a.Workload)
		}
		flat := a.Workload == "p2p_mpc" || a.Workload == "p2p_zfp"
		for _, d := range endToEnd {
			x, y := a.EndToEnd[d.name].Value, b.EndToEnd[d.name].Value
			worse := (y - x) / x
			if d.better == "higher" {
				worse = -worse
			}
			exact := flat && (d.name == "sim_latency_us" || d.name == "sim_gain_vs_off")
			switch {
			case exact && x != y:
				fail("A/A %s/%s: %v then %v, must repeat exactly", a.Workload, d.name, x, y)
			case math.Abs(worse) > d.bound:
				fail("A/A %s/%s: %.6g then %.6g, %+.1f%% (bound %.0f%%)", a.Workload, d.name, x, y, 100*worse, 100*d.bound)
			default:
				pass("A/A %s/%s: %.6g then %.6g", a.Workload, d.name, x, y)
			}
		}
	}

	// Half the payload, half the time.
	half := o
	half.scale = 2 * o.scale
	for _, w := range []string{"p2p_mpc", "p2p_zfp"} {
		rep, _, err := child(half, w, false)
		if err != nil {
			return err
		}
		ratio := rep.Metrics["host_ms_per_op_p50"].Value / base[w]["host_ms_per_op_p50"].Value
		if ratio < 0.4 || ratio > 0.6 {
			fail("half payload %s: host_ms_per_op_p50 ratio %.3f, want 0.5 +- 20%%", w, ratio)
		} else {
			pass("half payload %s: host_ms_per_op_p50 ratio %.3f", w, ratio)
		}
	}

	// Barely compressible data: the run reports failure, because the
	// workload asserts a gain; the figure is what is checked here.
	plasma := o
	plasma.dataset = "num_plasma"
	rep, _, err := child(plasma, "p2p_mpc", false)
	if err != nil {
		return err
	}
	if gain := rep.Metrics["sim_gain_vs_off"].Value; gain >= 1 || rep.Correct {
		fail("num_plasma p2p_mpc: sim_gain_vs_off %.3f (correct=%v), want < 1 and a failed run", gain, rep.Correct)
	} else {
		pass("num_plasma p2p_mpc: sim_gain_vs_off %.3f, reported as failed", gain)
	}

	// An injected delay lands in the wrapper's rung only. Small messages
	// keep the rungs short, so 2 ms stands out of their noise.
	lad := o
	lad.scale, lad.seconds = 32*o.scale, 2
	plain, _, err := child(lad, "p2p_mpc", true)
	if err != nil {
		return err
	}
	const inject = 2 * time.Millisecond
	lad.delay = inject
	slept, _, err := child(lad, "p2p_mpc", true)
	if err != nil {
		return err
	}
	delta := slept.Metrics["core.self_ms_per_op"].Value - plain.Metrics["core.self_ms_per_op"].Value
	if want := ms(inject); math.Abs(delta-want) > 0.1*want {
		fail("injected %v: core.self_ms_per_op moved %.3f ms, want %.1f +- 10%%", inject, delta, want)
	} else {
		pass("injected %v: core.self_ms_per_op moved %.3f ms", inject, delta)
	}
	for _, name := range []string{"mpc.compress_mb_s", "mpc.decompress_mb_s", "core.convert_mb_s", "bitstream.write_ns"} {
		x, y := plain.Metrics[name].Value, slept.Metrics[name].Value
		if math.Abs(y-x)/x > 0.10 {
			fail("injected %v: lower rung %s moved from %.5g to %.5g", inject, name, x, y)
		} else {
			pass("injected %v: lower rung %s unmoved (%.5g, %.5g)", inject, name, x, y)
		}
	}

	if bad > 0 {
		return fmt.Errorf("%d checks failed", bad)
	}
	return nil
}
