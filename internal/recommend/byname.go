package recommend

import (
	"fmt"
	"strings"

	"caasper/internal/baselines"
	"caasper/internal/core"
	"caasper/internal/errs"
	"caasper/internal/forecast"
)

// Settings carries the shared knobs of the named recommender
// constructors. Only MaxCores is required; every other field has the
// paper's running default. The public caasper.RecommenderSettings is an
// alias of this type; it lives here so the serve layer (which hot-swaps
// policies by name at runtime) can construct recommenders without
// importing the public package.
type Settings struct {
	// MaxCores tops the SKU ladder (required, in [1, CoresLimit]).
	MaxCores int
	// Window is the reactive decision window in samples (default 40, the
	// paper's "last 40 minutes of CPU usage"; at most SamplesLimit).
	Window int
	// Horizon is the proactive forecast horizon in samples (default 60;
	// at most SamplesLimit).
	Horizon int
	// Season is the seasonal-naïve period in samples (default 1440, one
	// day at minute resolution; at most SamplesLimit).
	Season int
	// ControlCores is the fixed allocation of the "control" policy
	// (default: MaxCores; in [0, MaxCores]).
	ControlCores int
	// Config overrides core.DefaultConfig(MaxCores) for the CaaSPER
	// policies.
	Config *core.Config
}

// Upper bounds of Settings. A recommender's memory grows with them
// (history rings per sample, the PvP curve per core), and Settings
// arrive from outside the program (serve's tenant PUT and policy swap,
// snapshot restore, every CLI's flags), so NewByName rejects anything
// larger instead of allocating without bound.
const (
	// SamplesLimit caps Window, Horizon and Season: four weeks of
	// minutes.
	SamplesLimit = 4 * 7 * 24 * 60
	// CoresLimit caps MaxCores.
	CoresLimit = 4096
)

// Names lists the names NewByName accepts, sorted.
func Names() []string {
	return []string{"autopilot", "caasper", "caasper-proactive", "control", "openshift", "vpa"}
}

// NewByName builds a recommender from its CLI-facing name — the one
// switch every command and the serve layer share:
//
//	caasper             the reactive CaaSPER policy (Algorithm 1)
//	caasper-proactive   the hybrid reactive+forecast policy (Eq. 4)
//	vpa                 the default Kubernetes VPA baseline
//	openshift           the OpenShift-style predictive VPA baseline
//	autopilot           the Autopilot-style moving-maximum baseline
//	control             fixed limits at ControlCores
//
// An unrecognised name wraps errs.ErrUnknownRecommender; settings out of
// their bounds wrap errs.ErrInvalidConfig. With an error, the Recommender
// is always a nil interface.
func NewByName(name string, s Settings) (Recommender, error) {
	if s.MaxCores < 1 || s.MaxCores > CoresLimit {
		return nil, fmt.Errorf("recommend: MaxCores %d outside [1, %d]: %w", s.MaxCores, CoresLimit, errs.ErrInvalidConfig)
	}
	if max(s.Window, s.Horizon, s.Season) > SamplesLimit {
		return nil, fmt.Errorf("recommend: Window %d, Horizon %d and Season %d must each be ≤ %d samples: %w",
			s.Window, s.Horizon, s.Season, SamplesLimit, errs.ErrInvalidConfig)
	}
	if s.ControlCores < 0 || s.ControlCores > s.MaxCores {
		return nil, fmt.Errorf("recommend: ControlCores %d outside [0, MaxCores %d]: %w",
			s.ControlCores, s.MaxCores, errs.ErrInvalidConfig)
	}
	window := s.Window
	if window == 0 {
		window = 40
	}
	horizon := s.Horizon
	if horizon == 0 {
		horizon = 60
	}
	season := s.Season
	if season == 0 {
		season = 1440
	}
	control := s.ControlCores
	if control == 0 {
		control = s.MaxCores
	}
	cfg := core.DefaultConfig(s.MaxCores)
	if s.Config != nil {
		cfg = *s.Config
	}
	switch name {
	case "caasper", "caasper-reactive":
		return built(NewCaaSPERReactive(cfg, window))
	case "caasper-proactive":
		return built(NewCaaSPERProactive(cfg, &forecast.SeasonalNaive{Season: season}, window, horizon, season))
	case "vpa":
		return built(baselines.NewKubernetesVPA(baselines.DefaultKubernetesVPAOptions(s.MaxCores)))
	case "openshift":
		return built(baselines.NewOpenShiftVPA(baselines.DefaultOpenShiftVPAOptions(s.MaxCores)))
	case "autopilot":
		return built(baselines.NewAutopilot(baselines.DefaultAutopilotOptions(s.MaxCores)))
	case "control":
		return baselines.NewControl(control), nil
	}
	return nil, fmt.Errorf("recommend: %w %q (known: %s)",
		errs.ErrUnknownRecommender, name, strings.Join(Names(), ", "))
}

// built passes a constructor's result on, dropping the Recommender when
// there is an error: a typed nil pointer would reach the caller as a
// non-nil interface.
func built(r Recommender, err error) (Recommender, error) {
	if err != nil {
		return nil, err
	}
	return r, nil
}
