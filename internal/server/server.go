// Package server exposes the adaptive scheduler as an HTTP inference
// service — the deployable form of the paper's Fig. 5 system. Clients
// POST classification batches and the service answers with the real
// class labels, the device the scheduler selected, and the simulated
// latency/energy cost; models can be added at run time (§V-A: "it is
// also typical to dynamically add models"), and device and scheduler
// state are observable.
//
// Endpoints:
//
//	POST /v1/classify   {"model","policy","samples":[[...]],"timeout_ms":50}
//	POST /v1/models     {"name","kind","input_shape",...}  (load a model)
//	GET  /v1/models     list loaded models
//	GET  /v1/devices    device names, kinds and probe state (node0)
//	GET  /v1/stats      scheduler decision statistics (node0)
//	GET  /v1/pipeline   serving-pipeline statistics (node0)
//	GET  /v1/cluster    fleet-wide routing, serving and resilience statistics
//	POST /v1/cluster    {"action":"sweep"}  (run a health sweep now)
//	GET  /v1/nodes      per-node state, load and health
//	POST /v1/nodes      {"node","action":"drain|evict|readmit|kill"}
//
// Classification requests flow through the concurrent serving pipeline
// (admission → live batching → per-device worker queues): concurrent
// clients posting the same model aggregate into one device batch, a full
// admission queue sheds load with 503, and the request's context bounds
// its time in the system. A request may carry a latency SLO
// ("timeout_ms"): admission rejects it with 504/"deadline_infeasible"
// when no device is predicted to make the deadline, and an admitted
// request whose deadline passes before execution is culled and answered
// 504/"deadline_exceeded" — doomed work never reaches a device. Virtual
// time is mapped to wall-clock time since the server started, so the GPU
// warms and cools as real seconds pass.
//
// The server always serves through the cluster tier (internal/cluster):
// a single-node server is a one-node fleet. NewCluster replicates the
// scheduler into N nodes behind a routing policy; /v1/classify then
// routes per request with failover, /v1/cluster and /v1/nodes expose the
// fleet, and the node0-scoped endpoints (/v1/stats, /v1/devices,
// /v1/pipeline, /v1/decisions) keep their single-box semantics.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"bomw/internal/cluster"
	"bomw/internal/core"
	"bomw/internal/nn"
	"bomw/internal/tensor"
)

// Server is the HTTP facade over a fleet of scheduler nodes. sched and
// pipe are node0's — the template scheduler and its pipeline — serving
// the single-box observability endpoints; classification routes through
// the fleet.
type Server struct {
	sched *core.Scheduler
	pipe  *core.Pipeline
	fleet *cluster.Cluster
	nodes []*core.Node
	start time.Time
	mux   *http.ServeMux

	mu     sync.Mutex
	seed   int64
	loaded map[string]bool
}

// New wraps a scheduler with a default serving pipeline — a one-node
// fleet. seed drives the weight initialisation of models loaded through
// the API.
func New(sched *core.Scheduler, seed int64) *Server {
	return NewWithConfig(sched, seed, core.PipelineConfig{})
}

// NewWithConfig wraps a scheduler with an explicitly configured serving
// pipeline (cfg.Clock is overridden to the server's virtual clock) — a
// one-node fleet.
func NewWithConfig(sched *core.Scheduler, seed int64, cfg core.PipelineConfig) *Server {
	s, err := NewCluster(sched, seed, cfg, 1, cluster.Config{})
	if err != nil {
		// Unreachable: a one-node fleet needs no replication and the
		// template node cannot collide with itself.
		panic(err)
	}
	return s
}

// NewCluster stands up an n-node fleet: node0 serves on sched itself and
// nodes 1..n-1 on Scheduler.Replica copies (shared trained classifiers,
// fresh devices), all pipelines on the server's virtual clock, behind
// ccfg.Policy (default round-robin). Replication re-runs model loading
// per node, so it can fail on a template whose models cannot rebuild.
func NewCluster(sched *core.Scheduler, seed int64, cfg core.PipelineConfig, n int, ccfg cluster.Config) (*Server, error) {
	s := &Server{sched: sched, start: time.Now(), seed: seed, loaded: map[string]bool{}}
	ccfg.Clock = s.now
	fleet, nodes, err := cluster.Build(sched, n, seed, cfg, ccfg)
	if err != nil {
		return nil, err
	}
	s.fleet = fleet
	s.nodes = nodes
	s.pipe = nodes[0].Pipeline()
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/classify", s.handleClassify)
	s.mux.HandleFunc("/v1/models", s.handleModels)
	s.mux.HandleFunc("/v1/devices", s.handleDevices)
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	s.mux.HandleFunc("/v1/decisions", s.handleDecisions)
	s.mux.HandleFunc("/v1/pipeline", s.handlePipeline)
	s.mux.HandleFunc("/v1/cluster", s.handleCluster)
	s.mux.HandleFunc("/v1/nodes", s.handleNodes)
	sched.EnableAudit(1024)
	return s, nil
}

// Pipeline exposes node0's serving pipeline.
func (s *Server) Pipeline() *core.Pipeline { return s.pipe }

// Cluster exposes the serving fleet.
func (s *Server) Cluster() *cluster.Cluster { return s.fleet }

// Nodes exposes the fleet's nodes in index order (node0 first).
func (s *Server) Nodes() []*core.Node { return s.nodes }

// Close drains the fleet: admission stops (new classification requests
// get 503), open batches flush, and in-flight work completes on every
// node. Call after http.Server.Shutdown so drained handlers have no
// successor.
func (s *Server) Close() { s.fleet.Close() }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// now maps wall time onto the scheduler's virtual clock.
func (s *Server) now() time.Duration { return time.Since(s.start) }

func httpError(w http.ResponseWriter, code int, format string, args ...interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// httpErrorReason is httpError plus a machine-readable "reason" field —
// clients distinguishing deadline_infeasible (never admitted, retrying
// is pointless until load drops) from deadline_exceeded (admitted but
// culled) key off it rather than parsing the message.
func httpErrorReason(w http.ResponseWriter, code int, reason, format string, args ...interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{
		"error":  fmt.Sprintf(format, args...),
		"reason": reason,
	})
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// retryAfter converts a backlog estimate into a Retry-After hint:
// ceiling seconds clamped to [1, 30] — at least one second so shed
// clients always back off, at most thirty so a transient spike cannot
// park them for minutes.
func retryAfter(backlog time.Duration) string {
	secs := int64((backlog + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	if secs > 30 {
		secs = 30
	}
	return strconv.FormatInt(secs, 10)
}

// ---- /v1/classify ------------------------------------------------------

// ClassifyRequest is the POST /v1/classify payload.
type ClassifyRequest struct {
	Model   string      `json:"model"`
	Policy  string      `json:"policy"` // best-throughput | lowest-latency | energy-efficiency
	Samples [][]float32 `json:"samples"`
	// TimeoutMS is the request's latency SLO in milliseconds, measured
	// from admission. Positive values enable deadline enforcement
	// (admission-control rejection, pre-execution culling); 0 uses the server's per-model/default SLO; negative
	// opts out of any SLO.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// ClassifyResponse is the POST /v1/classify reply.
type ClassifyResponse struct {
	Model     string  `json:"model"`
	Device    string  `json:"device"`
	Policy    string  `json:"policy"`
	GPUWarm   bool    `json:"gpu_warm"`
	Spilled   bool    `json:"spilled"`
	Classes   []int   `json:"classes"`
	LatencyUS int64   `json:"latency_us"`
	EnergyJ   float64 `json:"energy_j"`
	// BatchSize is the aggregated live batch this request was served in
	// (≥ the request's own sample count when concurrent requests merged).
	BatchSize int `json:"batch_size"`
	// WaitUS is the aggregation delay the request paid before dispatch.
	WaitUS int64 `json:"wait_us"`
}

func parsePolicy(s string) (core.Policy, error) {
	switch s {
	case "best-throughput", "":
		return core.BestThroughput, nil
	case "lowest-latency":
		return core.LowestLatency, nil
	case "energy-efficiency":
		return core.EnergyEfficiency, nil
	default:
		return 0, fmt.Errorf("unknown policy %q", s)
	}
}

func (s *Server) handleClassify(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var req ClassifyRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	pol, err := parsePolicy(req.Policy)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if len(req.Samples) == 0 {
		httpError(w, http.StatusBadRequest, "no samples")
		return
	}
	spec, err := s.sched.Dispatcher().Spec(req.Model)
	if err != nil {
		httpError(w, http.StatusNotFound, "%v", err)
		return
	}
	// Flatten samples into the model's input tensor.
	per := 1
	for _, d := range spec.InputShape {
		per *= d
	}
	flat := make([]float32, 0, len(req.Samples)*per)
	for i, sm := range req.Samples {
		if len(sm) != per {
			httpError(w, http.StatusBadRequest, "sample %d has %d values, model %s needs %d", i, len(sm), req.Model, per)
			return
		}
		flat = append(flat, sm...)
	}
	shape := append([]int{len(req.Samples)}, spec.InputShape...)
	in := tensor.FromSlice(flat, shape...)

	// Hand the request to the routing tier and wait on its future. The
	// router picks a node per the active policy and fails over past shed
	// or down nodes; the request context bounds the whole stay: client
	// disconnects abandon the wait and the serving pipeline culls the
	// request at the next stage boundary instead of executing it.
	var deadline time.Duration
	switch {
	case req.TimeoutMS > 0:
		deadline = time.Duration(req.TimeoutMS) * time.Millisecond
	case req.TimeoutMS < 0:
		deadline = -1 // explicit SLO opt-out
	}
	fut, err := s.fleet.Submit(r.Context(), core.PipelineRequest{
		Model:    req.Model,
		Policy:   pol,
		Input:    in,
		Deadline: deadline,
	})
	switch {
	case errors.Is(err, cluster.ErrNoHealthyNodes):
		// The mass-eviction wedge: every node is evicted, on probation or
		// inside a chaos window. The back-off hint is the soonest
		// readmission the fleet can predict — the next chaos-window
		// recovery when chaos is scripted, else the sweep's readmission
		// cadence floor.
		w.Header().Set("Retry-After", retryAfter(s.fleet.ReadmissionHint()))
		httpError(w, http.StatusServiceUnavailable, "%v", err)
		return
	case errors.Is(err, cluster.ErrBrownoutShed):
		// Brownout level ≥ 2: the fleet is deliberately shedding SLO-less
		// work to keep deadline traffic inside its SLOs.
		w.Header().Set("Retry-After", retryAfter(s.fleet.QueueDelay()))
		httpError(w, http.StatusServiceUnavailable, "%v", err)
		return
	case errors.Is(err, core.ErrAdmissionFull), errors.Is(err, core.ErrPipelineClosed),
		errors.Is(err, core.ErrNodeDraining), errors.Is(err, core.ErrNodeDown):
		// Load shedding / no capacity: every node the policy offered shed
		// or is down. The back-off hint scales with the fleet's actual
		// backlog instead of a fixed guess, so clients retry sooner on a
		// momentary spike and later under sustained saturation.
		w.Header().Set("Retry-After", retryAfter(s.fleet.QueueDelay()))
		httpError(w, http.StatusServiceUnavailable, "%v", err)
		return
	case errors.Is(err, core.ErrDeadlineInfeasible):
		// Admission control: no device is predicted to make the SLO
		// under current load — rejected before any queueing.
		httpErrorReason(w, http.StatusGatewayTimeout, "deadline_infeasible", "%v", err)
		return
	case err != nil:
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	c, err := fut.Wait(r.Context())
	if err != nil {
		// The client went away or its own context deadline fired; the
		// pipeline will cull the abandoned request before execution.
		httpError(w, http.StatusGatewayTimeout, "%v", err)
		return
	}
	switch {
	case errors.Is(c.Err, core.ErrDeadlineExceeded):
		// Admitted but the SLO passed before execution: culled, never run.
		httpErrorReason(w, http.StatusGatewayTimeout, "deadline_exceeded", "%v", c.Err)
		return
	case c.Err != nil:
		httpError(w, http.StatusInternalServerError, "%v", c.Err)
		return
	}
	writeJSON(w, ClassifyResponse{
		Model:     req.Model,
		Device:    c.Decision.Device,
		Policy:    c.Decision.Policy.String(),
		GPUWarm:   c.Decision.GPUWarm,
		Spilled:   c.Decision.Spilled,
		Classes:   c.Classes,
		LatencyUS: c.Latency.Microseconds(),
		EnergyJ:   c.EnergyJ,
		BatchSize: c.BatchSize,
		WaitUS:    c.Wait.Microseconds(),
	})
}

// ---- /v1/models --------------------------------------------------------

// ModelSpec is the JSON shape of an architecture (POST /v1/models).
type ModelSpec struct {
	Name          string `json:"name"`
	Kind          string `json:"kind"` // "ffnn" | "cnn"
	InputShape    []int  `json:"input_shape"`
	Hidden        []int  `json:"hidden"`
	Classes       int    `json:"classes"`
	Activation    string `json:"activation"` // default "relu"
	VGGBlocks     int    `json:"vgg_blocks,omitempty"`
	ConvsPerBlock int    `json:"convs_per_block,omitempty"`
	Filters       int    `json:"filters,omitempty"`
	FilterSize    int    `json:"filter_size,omitempty"`
	PoolSize      int    `json:"pool_size,omitempty"`
	SamePad       bool   `json:"same_pad,omitempty"`
}

// ToSpec converts the JSON form into a validated nn.Spec. The wire shape
// is nn's canonical spec JSON, so decoding goes through one codec.
func (m ModelSpec) ToSpec() (*nn.Spec, error) {
	raw, err := json.Marshal(m)
	if err != nil {
		return nil, err
	}
	return nn.ParseSpecJSON(raw)
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, map[string]interface{}{"models": s.sched.Dispatcher().Models()})
	case http.MethodPost:
		var m ModelSpec
		if err := json.NewDecoder(r.Body).Decode(&m); err != nil {
			httpError(w, http.StatusBadRequest, "decoding model spec: %v", err)
			return
		}
		spec, err := m.ToSpec()
		if err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.loaded[spec.Name] {
			httpError(w, http.StatusConflict, "model %q already loaded", spec.Name)
			return
		}
		// Load on every node so the router can place the model anywhere.
		// The same seed gives every replica identical weights — the fleet
		// answers identically regardless of routing.
		for _, nd := range s.nodes {
			if err := nd.Scheduler().LoadModel(spec, s.seed); err != nil {
				httpError(w, http.StatusConflict, "loading on %s: %v", nd.Name(), err)
				return
			}
		}
		s.loaded[spec.Name] = true
		// Content-Type must be set before WriteHeader — headers written
		// after the status line are silently dropped.
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusCreated)
		_ = json.NewEncoder(w).Encode(map[string]string{"loaded": spec.Name})
	default:
		httpError(w, http.StatusMethodNotAllowed, "GET or POST required")
	}
}

// ---- /v1/devices and /v1/stats ------------------------------------------

// DeviceStatus is one entry of GET /v1/devices.
type DeviceStatus struct {
	Name        string  `json:"name"`
	Warm        bool    `json:"warm"`
	ClockFrac   float64 `json:"clock_frac"`
	BusyMicros  int64   `json:"busy_us"`
	Slowdown    float64 `json:"observed_slowdown"`
	Degraded    bool    `json:"degraded"`
	Quarantined bool    `json:"quarantined"`
}

func (s *Server) handleDevices(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	now := s.now()
	quarantined := map[string]bool{}
	for _, name := range s.sched.Quarantined() {
		quarantined[name] = true
	}
	var out []DeviceStatus
	for _, name := range s.sched.Devices() {
		st, err := s.sched.Runtime().State(name, now)
		if err != nil {
			httpError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		slow, degraded := s.sched.DeviceHealth(name)
		busy := st.BusyUntil - now
		if busy < 0 {
			busy = 0
		}
		out = append(out, DeviceStatus{
			Name:        name,
			Warm:        st.Warm,
			ClockFrac:   st.ClockFrac,
			BusyMicros:  busy.Microseconds(),
			Slowdown:    slow,
			Degraded:    degraded,
			Quarantined: quarantined[name],
		})
	}
	writeJSON(w, map[string]interface{}{"devices": out})
}

// handleDecisions exposes the scheduler's decision audit trail
// (GET /v1/decisions?n=50).
func (s *Server) handleDecisions(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	n := 50
	if raw := r.URL.Query().Get("n"); raw != "" {
		// strconv.Atoi rejects trailing junk ("50abc"), which Sscanf's
		// %d would silently accept.
		v, err := strconv.Atoi(raw)
		if err != nil || v <= 0 {
			httpError(w, http.StatusBadRequest, "invalid n %q", raw)
			return
		}
		n = v
	}
	w.Header().Set("Content-Type", "application/json")
	if err := s.sched.WriteAuditJSON(w, n); err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
	}
}

// handlePipeline exposes serving-pipeline statistics: admission totals,
// load shed, batch flush triggers and live per-device queue depths.
func (s *Server) handlePipeline(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	st := s.pipe.Stats()
	writeJSON(w, map[string]interface{}{
		"submitted":      st.Submitted,
		"shed":           st.Shed,
		"infeasible":     st.Infeasible,
		"cancelled":      st.Cancelled,
		"expired":        st.Expired,
		"failed":         st.Failed,
		"completed":      st.Completed,
		"batches":        st.Batches,
		"size_flushes":   st.SizeFlushes,
		"window_flushes": st.WindowFlushes,
		"idle_flushes":   st.IdleFlushes,
		"drain_flushes":  st.DrainFlushes,
		"retries":        st.Retries,
		"failovers":      st.Failovers,
		"exec_failures":  st.ExecFailures,
		"in_flight":      st.InFlight,
		"device_depth":   st.Depth,
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	st := s.sched.Stats()
	perPolicy := map[string]int{}
	for pol, n := range st.PerPolicy {
		perPolicy[pol.String()] = n
	}
	quarantined := st.Quarantined
	if quarantined == nil {
		quarantined = []string{}
	}
	pst := s.pipe.Stats()
	writeJSON(w, map[string]interface{}{
		"decisions":    st.Decisions,
		"spills":       st.Spills,
		"per_device":   st.PerDevice,
		"per_policy":   perPolicy,
		"quarantines":  st.Quarantines,
		"readmissions": st.Readmissions,
		"quarantined":  quarantined,
		"uptime_us":    s.now().Microseconds(),
		// Deadline/overload posture: what admission control rejected
		// and what was culled before execution. Node hedging is
		// reported under /v1/cluster.
		"slo": map[string]int64{
			"infeasible": pst.Infeasible,
			"culled":     pst.Cancelled,
			"expired":    pst.Expired,
		},
	})
}
