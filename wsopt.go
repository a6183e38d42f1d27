// Package wsopt is a runtime optimizer for block-based data transfer in
// queries over web services, reproducing Gounaris, Yfoulis, Sakellariou
// and Dikaiakos, "Robust Runtime Optimization of Data Transfer in Queries
// over Web Services" (ICDE 2008).
//
// A client pulling a large query result from a web service in blocks
// faces a noisy, drifting, concave cost curve over the block size. This
// package provides controllers that tune the block size online, at the
// client, with no server cooperation:
//
//   - switching extremum controllers with constant gain, adaptive gain,
//     and the paper's novel hybrid of the two (NewHybridController);
//   - model-based controllers that identify the cost curve from a handful
//     of samples and jump to the analytic optimum
//     (NewModelBasedController), optionally refined by an extremum
//     controller;
//   - a recursive-least-squares self-tuning controller that keeps
//     re-identifying the curve as it drifts (NewSelfTuningController).
//
// The repository also ships every substrate needed to reproduce the
// paper's evaluation: an embedded relational engine with TPC-H-style
// generators, a block-pull web service and client (Algorithm 1 of the
// paper), XML/binary wire codecs, a calibrated cost simulator, and an
// experiment harness regenerating every table and figure (cmd/labrunner,
// bench_test.go).
//
// Quick start (simulation):
//
//	ctl, _ := wsopt.NewHybridController(wsopt.DefaultControllerConfig())
//	spec, _ := wsopt.ConfigurationByName("conf2.2")
//	res := wsopt.SimulateTransfer(spec.New(1), ctl, spec.Tuples)
//	fmt.Println(res.TotalMS)
//
// Quick start (live HTTP):
//
//	cat, _ := wsopt.LoadTPCH(0.1)
//	srv, _ := wsopt.NewServer(wsopt.ServerConfig{Catalog: cat})
//	http.ListenAndServe(":8080", srv.Handler())
//	// elsewhere:
//	c, _ := wsopt.NewClient("http://localhost:8080", nil, nil)
//	ctl, _ := wsopt.NewHybridController(wsopt.DefaultControllerConfig())
//	res, _ := c.Run(ctx, wsopt.Query{Table: "customer"}, ctl, wsopt.MetricPerTuple, false)
//	_ = c.Wait(ctx) // before exiting: the run's session closes behind it
package wsopt

import (
	"net/http"

	"wsopt/internal/client"
	"wsopt/internal/core"
	"wsopt/internal/experiments"
	"wsopt/internal/minidb"
	"wsopt/internal/netsim"
	"wsopt/internal/profile"
	"wsopt/internal/service"
	"wsopt/internal/sim"
	"wsopt/internal/sysid"
	"wsopt/internal/tpch"
	"wsopt/internal/wire"
)

// --- Controllers (the paper's Section III) ---

// Controller decides the size of the next data block to pull; see
// core.Controller for the contract.
type Controller = core.Controller

// ControllerConfig tunes the switching extremum controllers; see
// core.Config for every knob (b1, b2, dither, averaging horizon,
// phase-transition criterion, switch-back, periodic reset).
type ControllerConfig = core.Config

// Limits bound the block sizes a controller may emit.
type Limits = core.Limits

// TransitionCriterion selects Eq. 5 or Eq. 6 for the hybrid controller.
type TransitionCriterion = core.TransitionCriterion

// The hybrid phase-transition criteria of the paper.
const (
	CriterionSignBalance  = core.CriterionSignBalance
	CriterionWindowedMean = core.CriterionWindowedMean
)

// DefaultControllerConfig returns the paper's WAN parameterization
// (x0=1000, limits [100, 20000], b1=2000, b2=25, df=25, n=3, n'=5, s=1).
func DefaultControllerConfig() ControllerConfig { return core.DefaultConfig() }

// NewConstantController builds the constant-gain switching extremum
// controller (Eq. 1 with g = b1).
func NewConstantController(cfg ControllerConfig) (Controller, error) { return core.NewConstant(cfg) }

// NewAdaptiveController builds the adaptive-gain switching extremum
// controller (Eq. 3).
func NewAdaptiveController(cfg ControllerConfig) (Controller, error) { return core.NewAdaptive(cfg) }

// NewHybridController builds the paper's novel hybrid controller (Eq. 4):
// constant gain during the transient, adaptive gain in steady state.
func NewHybridController(cfg ControllerConfig) (Controller, error) { return core.NewHybrid(cfg) }

// NewStaticController returns the fixed-block-size baseline.
func NewStaticController(size int) Controller { return core.NewStatic(size) }

// MIMDConfig parameterizes the multiplicative baseline controller (Eq. 7).
type MIMDConfig = core.MIMDConfig

// NewMIMDController builds the MIMD multiplicative baseline.
func NewMIMDController(cfg MIMDConfig) (Controller, error) { return core.NewMIMD(cfg) }

// AIMDConfig parameterizes the TCP-style additive-increase /
// multiplicative-decrease baseline.
type AIMDConfig = core.AIMDConfig

// NewAIMDController builds the AIMD linear baseline the paper relates the
// constant-gain scheme to.
func NewAIMDController(cfg AIMDConfig) (Controller, error) { return core.NewAIMD(cfg) }

// --- Model-based control (the paper's Section IV) ---

// Model is a fitted smooth approximation of the cost profile.
type Model = sysid.Model

// ModelKind selects the quadratic (Eq. 8), parabolic (Eq. 9) or
// best-of-both model family.
type ModelKind = sysid.ModelKind

// Model families.
const (
	ModelQuadratic = sysid.ModelQuadratic
	ModelParabolic = sysid.ModelParabolic
	ModelBest      = sysid.ModelBest
)

// ModelBasedConfig parameterizes a model-based controller.
type ModelBasedConfig = sysid.ModelBasedConfig

// NewModelBasedController builds the Section IV controller: sample a few
// sizes, least-squares fit, jump to the analytic optimum; optionally hand
// over to a refinement controller (cfg.Refine).
func NewModelBasedController(cfg ModelBasedConfig) (*sysid.ModelBased, error) {
	return sysid.NewModelBased(cfg)
}

// SelfTuningConfig parameterizes the RLS-based self-tuning controller.
type SelfTuningConfig = sysid.SelfTuningConfig

// NewSelfTuningController builds the self-tuning extremum controller:
// recursive least squares with a forgetting factor keeps re-identifying
// the profile, tracking a drifting optimum.
func NewSelfTuningController(cfg SelfTuningConfig) (*sysid.SelfTuning, error) {
	return sysid.NewSelfTuning(cfg)
}

// SetpointConfig parameterizes the setpoint-tracking controller.
type SetpointConfig = sysid.SetpointConfig

// NewSetpointController builds the variable-setpoint optimum-tracking
// controller: an RLS-estimated optimum steered toward proportionally.
func NewSetpointController(cfg SetpointConfig) (*sysid.SetpointTracking, error) {
	return sysid.NewSetpointTracking(cfg)
}

// SupervisorConfig parameterizes the supervisory failover controller.
type SupervisorConfig = core.SupervisorConfig

// NewSupervisorController builds a supervisor over a bank of controllers:
// it fails over to the next one when the windowed performance degrades —
// the supervisory-control pattern from the paper's related work.
func NewSupervisorController(bank []Controller, cfg SupervisorConfig) (*core.Supervisor, error) {
	return core.NewSupervisor(bank, cfg)
}

// FitQuadratic least-squares fits Eq. 8 (y = a·x² + b·x + c) to samples.
func FitQuadratic(xs, ys []float64) (Model, error) { return sysid.FitQuadratic(xs, ys) }

// FitParabolic least-squares fits Eq. 9 (y = a/x + b·x + c) to samples.
func FitParabolic(xs, ys []float64) (Model, error) { return sysid.FitParabolic(xs, ys) }

// --- Web service substrate (server, client, database, codecs) ---

// ServerConfig configures the block-pull web service.
type ServerConfig = service.Config

// Server is the block-pull web service wrapping the embedded database.
type Server = service.Server

// NewServer builds a web service over a catalog.
func NewServer(cfg ServerConfig) (*Server, error) { return service.New(cfg) }

// Client talks to a block-pull web service and executes Algorithm 1.
type Client = client.Client

// Query names a server-side scan-project(-limit) plan.
type Query = client.Query

// Metric selects the controller feedback for live runs.
type Metric = client.Metric

// Feedback metrics.
const (
	MetricPerTuple = client.MetricPerTuple
	MetricPerBlock = client.MetricPerBlock
)

// Codec serializes blocks on the wire.
type Codec = wire.Codec

// CodecXML returns the SOAP-like XML rowset codec (the realistic default).
func CodecXML() Codec { return wire.XML{} }

// CodecBinary returns the compact binary codec, the ablation baseline for
// quantifying the XML overhead.
func CodecBinary() Codec { return wire.Binary{} }

// CodecJSON returns the JSON rowset codec.
func CodecJSON() Codec { return wire.JSON{} }

// CodecByName resolves "xml", "json", "binary", optionally with a
// "+gzip" suffix for transport compression.
func CodecByName(name string) (Codec, error) { return wire.ByName(name) }

// RetryPolicy controls retries of the client's session-management
// requests; block transfers are never retried (see client.RetryPolicy).
type RetryPolicy = client.RetryPolicy

// NewClient builds a client for the service at baseURL. codec must match
// the server's (nil means XML); hc may be nil for a sensible default.
func NewClient(baseURL string, codec Codec, hc *http.Client) (*Client, error) {
	return client.New(baseURL, codec, hc)
}

// Catalog is the embedded database's table registry.
type Catalog = minidb.Catalog

// LoadTPCH generates the TPC-H-style CUSTOMER and ORDERS relations at the
// given scale factor into a fresh catalog (SF=1: 150K customers, 450K
// orders).
func LoadTPCH(sf float64) (*Catalog, error) { return tpch.Load(sf) }

// CostModel is the per-block cost skeleton used by simulations and by the
// server's delay injection.
type CostModel = netsim.CostModel

// Load describes runtime pressure (concurrent jobs/queries, memory) on
// the simulated service.
type Load = netsim.Load

// --- Simulation and experiments ---

// Profile is a source of per-block response times for simulation.
type Profile = profile.Profile

// Configuration bundles a named experimental setup from the paper
// (conf1.1 .. conf2.2): profile constructor, limits, b1, cardinality.
type Configuration = profile.Spec

// Configurations returns the paper's five evaluation setups.
func Configurations() []Configuration { return profile.Specs() }

// ConfigurationByName looks a setup up by its paper label, e.g. "conf2.2".
func ConfigurationByName(name string) (Configuration, error) { return profile.SpecByName(name) }

// SimResult is the trace of one simulated query execution.
type SimResult = sim.Result

// SimulateTransfer runs a controller against a profile until tuples rows
// have been transferred, feeding the controller the per-tuple cost.
func SimulateTransfer(p Profile, ctl Controller, tuples int) SimResult {
	return sim.RunTuples(p, ctl, tuples, sim.Options{})
}

// ExperimentReport is the rendered outcome of one paper experiment.
type ExperimentReport = experiments.Report

// ExperimentOptions tune an experiment run (replications, seed).
type ExperimentOptions = experiments.Options

// Experiments lists the registered experiment ids (figures, tables,
// ablations).
func Experiments() []string { return experiments.IDs() }

// RunExperiment regenerates one table or figure of the paper.
func RunExperiment(id string, opts ExperimentOptions) (ExperimentReport, error) {
	return experiments.Run(id, opts)
}
