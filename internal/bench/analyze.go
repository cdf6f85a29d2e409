package bench

import (
	"scidp/internal/chaos"
	"scidp/internal/ioengine"
	"scidp/internal/obs"
	"scidp/internal/obs/analyze"
	"scidp/internal/pfs"
	"scidp/internal/solutions"
)

// AnalyzeRun executes the canonical SciDP pipeline once on a fresh
// fault-capable testbed with a private registry and returns the
// post-run analysis, the pipeline report, and the registry itself.
// plan may be nil (no chaos); workers sets the ComputePool size (0 =
// inline); a non-zero tier attaches the cooperative cache tier, and the
// report's cache_tier section then breaks tier-arbitrated reads down by
// serving level. Two calls with identical arguments produce
// byte-identical analysis JSON.
func AnalyzeRun(s Scale, timestamps int, plan *chaos.Plan, workers int, label string, tier ioengine.TierConfig) (*analyze.Report, *solutions.Report, *obs.Registry, error) {
	reg := obs.New()
	reg.SetProcess(label)
	cfg := FaultsEnvConfig(s)
	cfg.Obs = reg
	cfg.Chaos = plan
	cfg.Workers = workers
	cfg.CacheTier = tier
	pc := pfs.DefaultConfig()
	if err := plan.CheckTargets(pc.OSSCount*pc.OSTsPerOSS, cfg.Nodes); err != nil {
		return nil, nil, nil, err
	}
	rep, err := run(s, cfg, timestamps, solutions.AnalysisNone, solutions.RunSciDP)
	if err != nil {
		return nil, nil, nil, err
	}
	return analyze.Analyze(reg), rep, reg, nil
}
