package main

import (
	"context"
	"fmt"
	"strconv"

	"repro/internal/gpu"
	"repro/internal/harness"
	"repro/internal/litmus"
	"repro/internal/wgsl"
	"repro/internal/xrand"
)

// replayCell is one of a workload's own cells, re-run in a traced
// benchmark through the science layers' public calls.
type replayCell struct {
	test   *litmus.Test
	device string
	env    harness.Params
	// lower selects the wgsl toolchain of the given driver build;
	// tuning cells run untranslated programs.
	lower  bool
	driver wgsl.DriverVersion
	iters  int
}

// replay times the science layers on the given cells. Each cell runs
// once whole through harness.Runner.RunInto (span harness.cell), then
// once more launch by launch: harness.BuildKernel (harness.kernelgen),
// wgsl.Toolchain.Lower over the launch's programs (wgsl.lower) and
// gpu.Device.RunCtx (gpu.launch). The counters replay.instances and
// replay.iterations give the instances per launch.
func replay(ctx context.Context, t *tracer, cells []replayCell, seed uint64) error {
	for i, c := range cells {
		prof, ok := gpu.ProfileByName(c.device)
		if !ok {
			return fmt.Errorf("replay: unknown device %q", c.device)
		}
		dev, err := gpu.NewDevice(prof, gpu.Bugs{})
		if err != nil {
			return err
		}
		r, err := harness.NewRunner(dev, c.env)
		if err != nil {
			return err
		}
		var tc *wgsl.Toolchain
		if c.lower {
			tc = wgsl.NewToolchain(prof, c.driver)
			r.Lower = tc.LowerFunc()
		}
		var res harness.Result
		cell := t.begin("harness.cell", 0)
		err = r.RunInto(ctx, &res, c.test, c.iters, xrand.NewFromPath(seed, "mcbench-replay", strconv.Itoa(i)))
		cell.end()
		if err != nil {
			return fmt.Errorf("replay: %s on %s: %w", c.test.Name, c.device, err)
		}
		t.add("replay.instances", int64(res.Instances))
		t.add("replay.iterations", int64(res.Iterations))

		env := c.env
		rng := xrand.NewFromPath(seed, "mcbench-replay-layers", strconv.Itoa(i))
		for it := 0; it < c.iters; it++ {
			k := t.begin("harness.kernelgen", cell.id)
			spec, err := harness.BuildKernel(c.test, &env, rng)
			k.end()
			if err != nil {
				return fmt.Errorf("replay: build %s: %w", c.test.Name, err)
			}
			if tc != nil {
				l := t.begin("wgsl.lower", cell.id)
				for pi, p := range spec.Programs {
					spec.Programs[pi], _ = tc.Lower(p)
				}
				l.end()
			}
			g := t.begin("gpu.launch", cell.id)
			_, err = dev.RunCtx(ctx, *spec, rng)
			g.end()
			if err != nil {
				return fmt.Errorf("replay: launch %s on %s: %w", c.test.Name, c.device, err)
			}
		}
	}
	return nil
}

// every returns each k-th element of cells, starting with the first.
func every(cells []replayCell, k int) []replayCell {
	if k < 1 {
		k = 1
	}
	var out []replayCell
	for i := 0; i < len(cells); i += k {
		out = append(out, cells[i])
	}
	return out
}
