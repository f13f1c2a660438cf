package bookleaf

import "bookleaf/internal/config"

// ConfigFromDeck maps a parsed input deck onto a Config. It is the
// single deck→Config translation both front ends share: the bookleaf
// CLI and the bleaf-served job API, so a deck submitted over HTTP means
// exactly what the same file means on the command line. Unknown keys
// are not an error here — callers that care (the CLI warns, the server
// rejects nothing) consult d.Unused afterwards.
func ConfigFromDeck(d *config.Deck) (Config, error) {
	var cfg Config
	var err error
	cfg.Problem = d.String("control", "problem", "sod")
	if cfg.NX, err = d.Int("control", "nx", 100); err != nil {
		return cfg, err
	}
	if cfg.NY, err = d.Int("control", "ny", 10); err != nil {
		return cfg, err
	}
	if cfg.TEnd, err = d.Float("control", "tend", 0); err != nil {
		return cfg, err
	}
	if cfg.MaxSteps, err = d.Int("control", "maxsteps", 0); err != nil {
		return cfg, err
	}
	if cfg.Ranks, err = d.Int("control", "ranks", 1); err != nil {
		return cfg, err
	}
	if cfg.Threads, err = d.Int("control", "threads", 1); err != nil {
		return cfg, err
	}
	cfg.Partitioner = d.String("control", "partitioner", "rcb")
	cfg.Reorder = d.String("control", "reorder", "")
	fuseOn, err := d.Bool("control", "fuse", true)
	if err != nil {
		return cfg, err
	}
	cfg.NoFuse = !fuseOn
	cfg.Checkpoint = d.String("control", "checkpoint", "")
	if cfg.CheckpointEvery, err = d.Int("control", "checkpoint_every", 0); err != nil {
		return cfg, err
	}
	cfg.Resume = d.String("control", "resume", "")
	cfg.ALE = d.String("ale", "mode", "")
	if cfg.ALE == "lagrangian" || cfg.ALE == "off" {
		cfg.ALE = ""
	}
	if cfg.ALEFreq, err = d.Int("ale", "freq", 1); err != nil {
		return cfg, err
	}
	if cfg.FirstOrderRemap, err = d.Bool("ale", "firstorder", false); err != nil {
		return cfg, err
	}
	cfg.Trace = d.String("obs", "trace", "")
	cfg.Metrics = d.String("obs", "metrics", "")
	if cfg.ProbeEvery, err = d.Int("obs", "probe_every", 0); err != nil {
		return cfg, err
	}
	if d.Has("supervise") {
		sc := &SuperviseConfig{}
		if sc.Enabled, err = d.Bool("supervise", "enabled", false); err != nil {
			return cfg, err
		}
		if sc.RepartAtStep, err = d.Int("supervise", "repart_at", 0); err != nil {
			return cfg, err
		}
		if sc.RepartRanks, err = d.Int("supervise", "repart_ranks", 0); err != nil {
			return cfg, err
		}
		cfg.Supervise = sc
	}
	cfg.Hourglass = d.String("hydro", "hourglass", "")
	if cfg.ScatterAcc, err = d.Bool("hydro", "scatteracc", false); err != nil {
		return cfg, err
	}
	if cfg.SedovEnergy, err = d.Float("hydro", "sedov_energy", 0); err != nil {
		return cfg, err
	}
	return cfg, nil
}
