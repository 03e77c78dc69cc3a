package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/core"
	"repro/internal/diskio"
	"repro/internal/dist"
	"repro/internal/gpu"
	"repro/internal/guard"
	"repro/internal/resultcache"
	"repro/internal/sched"
)

// Config sizes the campaign server. The zero value of each field
// selects a sensible default (see New).
type Config struct {
	// StateDir is the root of the server's durable state: job records,
	// checkpoints and published reports. Required.
	StateDir string
	// Runners is the pool size — how many jobs execute concurrently.
	// Default 2.
	Runners int
	// JobWorkers is each job's scheduler worker count (the -parallel
	// flag of the CLI verbs; any value yields identical artifacts).
	// Default 4.
	JobWorkers int
	// QueueDepth bounds the FIFO queue; submissions beyond it are
	// rejected with 429. Default 64.
	QueueDepth int
	// PerClient caps one client's live (queued + running) jobs;
	// submissions beyond it are rejected with 429. Default 4.
	PerClient int
	// FsyncEvery is the checkpoint durability policy (see the CLI
	// -fsync-every flag). Default 0: the scheduler's bounded-loss
	// default.
	FsyncEvery int
	// ProgressEvery is the cadence of progress snapshots feeding the
	// SSE hub and metrics. Default sched.DefaultProgressEvery.
	ProgressEvery time.Duration
	// EnableDist mounts the distributed-coordination API (/dist/v1/)
	// and accepts jobs with "distributed": true — such jobs register a
	// campaign coordinator instead of executing cells locally, and
	// `mcmutants work` processes pointed at this server execute the
	// leased ranges. The artifact stays byte-identical either way.
	EnableDist bool
	// DistLeaseTTL is the worker lease deadline for distributed jobs.
	// Default 10s.
	DistLeaseTTL time.Duration
	// CacheDir, when non-empty, roots a persistent result cache shared
	// by every job: cells already computed under identical parameters —
	// by an earlier job, another server over the same directory, or the
	// CLI verbs — are served from disk. Caching never changes artifacts
	// (they stay byte-identical to a cold run) and a cache storage
	// failure degrades the cache to pass-through without failing jobs.
	CacheDir string
	// CacheMaxBytes is the cache size budget enforced by LRU compaction
	// at open; 0 means unbounded.
	CacheMaxBytes int64
	// FS is the filesystem seam for all durable writes; nil means the
	// real filesystem. Tests inject a fault model.
	FS diskio.FS
	// Logf, when non-nil, receives one line per server event (job
	// transitions, boot recovery, drain).
	Logf func(format string, args ...any)

	// Budgets is the per-job budget policy: defaults applied when a
	// spec requests nothing and caps a request may not exceed. The zero
	// value means no defaults and no caps.
	Budgets guard.Limits
	// PoisonBoots caps how many boots may find a job running before it
	// is quarantined as poisoned instead of re-queued — the defense
	// against a job that crashes the process on every attempt.
	// Default 3; negative disables quarantine (never recommended).
	PoisonBoots int
	// MemSoftBytes and MemHardBytes are the brownout watermarks over
	// the live heap. At soft the server pauses queue drain and sheds
	// new submissions (429 + Retry-After); at hard it additionally
	// cancels the newest running jobs into the shed state. Zero
	// disables the watcher.
	MemSoftBytes uint64
	MemHardBytes uint64
	// GuardEvery is the supervision cadence: watchdog sweeps and memory
	// samples. Default 1s. The cadence is wall clock, but every
	// decision taken at a tick is a function of Clock/ReadMem, so tests
	// drive ticks directly.
	GuardEvery time.Duration
	// Clock feeds the watchdog; nil means the system clock. Tests
	// inject guard.FakeClock.
	Clock guard.Clock
	// ReadMem feeds the memory watcher; nil means runtime heap stats.
	// Tests script pressure trajectories.
	ReadMem func() uint64
}

// errJobCancelled is the cancel cause distinguishing a client DELETE
// from a server shutdown: the former ends the job as cancelled, the
// latter re-queues it for the next boot.
var errJobCancelled = errors.New("serve: job cancelled by client")

// runningJob is the server's handle on an executing job.
type runningJob struct {
	cancel context.CancelCauseFunc
	last   sched.Progress
}

// Server is the campaign service: a durable job store, a bounded FIFO
// queue drained by a runner pool, an SSE hub and a metrics registry
// behind an HTTP API.
type Server struct {
	cfg   Config
	study *core.Study
	fs    diskio.FS

	store   *store
	hub     *hub
	metrics *metrics
	cache   *resultcache.Cache // nil unless Config.CacheDir
	dist    *dist.Hub          // nil unless Config.EnableDist
	mux     *http.ServeMux

	watchdog *guard.Watchdog
	mem      *guard.MemWatcher // nil unless a watermark is configured
	// paused gates queue drain during brownout. Workers re-check it
	// under qmu in next; transitions go through wakeWorkers so the
	// lost-wakeup argument there covers unpausing too.
	paused atomic.Bool

	qmu   sync.Mutex
	qcond *sync.Cond
	queue []string

	mu      sync.Mutex
	running map[string]*runningJob

	// submitMu serializes submission: the existence check, the
	// per-client admission count and the register+enqueue must be one
	// critical section, or two identical concurrent submissions both
	// miss the check and the same job ID runs twice.
	submitMu sync.Mutex

	draining atomic.Bool
	drainCh  chan struct{}
	wg       sync.WaitGroup
}

// New builds a server over the state directory, loading persisted
// jobs and re-queueing any that were queued or running when the
// previous process stopped — those resume from their checkpoints.
func New(cfg Config) (*Server, error) {
	if cfg.StateDir == "" {
		return nil, fmt.Errorf("serve: Config.StateDir is required")
	}
	if cfg.Runners <= 0 {
		cfg.Runners = 2
	}
	if cfg.JobWorkers <= 0 {
		cfg.JobWorkers = 4
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.PerClient <= 0 {
		cfg.PerClient = 4
	}
	if cfg.ProgressEvery <= 0 {
		cfg.ProgressEvery = sched.DefaultProgressEvery
	}
	if cfg.DistLeaseTTL <= 0 {
		cfg.DistLeaseTTL = 10 * time.Second
	}
	if cfg.FS == nil {
		cfg.FS = diskio.OS{}
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.PoisonBoots == 0 {
		cfg.PoisonBoots = 3
	}
	if cfg.GuardEvery <= 0 {
		cfg.GuardEvery = time.Second
	}
	if cfg.Clock == nil {
		cfg.Clock = guard.SystemClock{}
	}
	if cfg.MemSoftBytes > 0 && cfg.MemHardBytes > 0 && cfg.MemSoftBytes > cfg.MemHardBytes {
		return nil, fmt.Errorf("serve: soft watermark %d exceeds hard watermark %d", cfg.MemSoftBytes, cfg.MemHardBytes)
	}
	study, err := core.NewStudy()
	if err != nil {
		return nil, err
	}
	st, err := openStore(cfg.FS, cfg.StateDir, cfg.Logf)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:     cfg,
		study:   study,
		fs:      cfg.FS,
		store:   st,
		hub:     newHub(),
		metrics: newMetrics(),
		running: map[string]*runningJob{},
		drainCh: make(chan struct{}),
	}
	s.watchdog = guard.NewWatchdog(cfg.Clock, s.expireJob)
	if cfg.MemSoftBytes > 0 || cfg.MemHardBytes > 0 {
		s.mem = guard.NewMemWatcher(cfg.MemSoftBytes, cfg.MemHardBytes, cfg.ReadMem, s.onMemLevel)
	}
	if cfg.EnableDist {
		s.dist = dist.NewHub()
	}
	if cfg.CacheDir != "" {
		// Misconfiguration (permissions, a file in the way) fails server
		// startup; a storage fault yields a cache already degraded to
		// pass-through, because a full disk must not take the service down.
		c, err := resultcache.Open(cfg.CacheDir, resultcache.Options{FS: cfg.FS, MaxBytes: cfg.CacheMaxBytes})
		if err != nil {
			return nil, err
		}
		s.cache = c
	}
	s.qcond = sync.NewCond(&s.qmu)
	s.routes()
	if err := s.recover(); err != nil {
		return nil, err
	}
	return s, nil
}

// recover re-queues jobs interrupted by the previous process: running
// jobs crashed mid-campaign, queued jobs never started, shed jobs were
// parked by a brownout that died with the process. All resume (or
// start) from whatever their checkpoints hold, oldest first — except a
// job found running at too many consecutive boots. Each such boot
// means the process died while this job was active; past the poison
// cap the job is presumed to be what keeps killing the process, and it
// is quarantined in the poisoned dead-letter state instead of fed back
// into the crash loop. Graceful drains park jobs as queued, so clean
// restarts never advance the incarnation count.
func (s *Server) recover() error {
	for _, j := range s.store.list() {
		switch j.State {
		case StateRunning:
			if s.cfg.PoisonBoots > 0 && j.BootIncarnations >= s.cfg.PoisonBoots {
				boots := j.BootIncarnations
				if _, err := s.store.update(j.ID, func(j *Job) {
					j.State = StatePoisoned
					j.Error = fmt.Sprintf(
						"quarantined: %d consecutive boots found this job running (cap %d); resubmit the spec to retry it",
						boots+1, s.cfg.PoisonBoots)
					now := time.Now().UTC()
					j.FinishedAt = &now
					j.StartedAt = nil
				}); err != nil {
					return err
				}
				s.metrics.jobFinished(StatePoisoned)
				s.metrics.guardPoisoned()
				s.cfg.Logf("serve: job %s poisoned after %d boot incarnations", j.ID, boots+1)
				continue
			}
			if _, err := s.store.update(j.ID, func(j *Job) {
				j.State = StateQueued
				j.Resumes++
				j.BootIncarnations++
				j.StartedAt = nil
			}); err != nil {
				return err
			}
			s.cfg.Logf("serve: recovered running job %s: re-queued for resume (boot incarnation %d)",
				j.ID, j.BootIncarnations+1)
			s.enqueue(j.ID)
		case StateShed:
			// Shed is a parked state, not a verdict: the pressure that
			// shed the job died with the old process, so re-queue.
			if _, err := s.store.update(j.ID, func(j *Job) {
				j.State = StateQueued
				j.Resumes++
				j.StartedAt = nil
			}); err != nil {
				return err
			}
			s.cfg.Logf("serve: recovered shed job %s: re-queued", j.ID)
			s.enqueue(j.ID)
		case StateQueued:
			s.cfg.Logf("serve: recovered queued job %s", j.ID)
			s.enqueue(j.ID)
		}
	}
	return nil
}

// expireJob is the watchdog's expiry callback: cancel the running job
// with the typed cause; runJob's classification does the rest.
func (s *Server) expireJob(id string, cause error) {
	s.mu.Lock()
	rj := s.running[id]
	s.mu.Unlock()
	if rj != nil {
		s.cfg.Logf("serve: job %s: %v", id, cause)
		rj.cancel(cause)
	}
}

// onMemLevel reacts to watermark transitions: any pressure pauses
// queue drain (paused workers park in next; running jobs continue),
// and a return to OK resumes drain and re-queues shed jobs. Hard-level
// job shedding happens per guard tick (see guardTick), not here, so
// sustained pressure keeps shedding one job at a time until it clears.
func (s *Server) onMemLevel(from, to guard.Level, heap uint64) {
	s.cfg.Logf("serve: memory watermark %s -> %s (heap %d bytes)", from, to, heap)
	if to == guard.LevelOK {
		s.paused.Store(false)
		s.requeueShed()
		s.wakeWorkers()
		return
	}
	s.paused.Store(true)
}

// guardTick is one supervision step: sample memory (shedding the
// newest running job while the hard watermark is exceeded) and sweep
// the watchdog. Production runs it on the GuardEvery ticker; tests
// call it directly after moving the fake clock or pressure script.
func (s *Server) guardTick() {
	if s.mem != nil && s.mem.Sample() == guard.LevelHard {
		s.shedNewestRunning()
	}
	s.watchdog.Sweep()
}

// shedNewestRunning cancels the most recently started running job with
// the shed cause — newest first, because it has the least sunk work
// and the freshest checkpoint deficit.
func (s *Server) shedNewestRunning() {
	s.mu.Lock()
	ids := make([]string, 0, len(s.running))
	for id := range s.running {
		ids = append(ids, id)
	}
	s.mu.Unlock()
	var newest string
	var newestAt time.Time
	for _, id := range ids {
		j, ok := s.store.get(id)
		if !ok || j.State != StateRunning || j.StartedAt == nil {
			continue
		}
		if newest == "" || j.StartedAt.After(newestAt) {
			newest, newestAt = id, *j.StartedAt
		}
	}
	if newest == "" {
		return
	}
	s.mu.Lock()
	rj := s.running[newest]
	s.mu.Unlock()
	if rj != nil {
		s.cfg.Logf("serve: shedding job %s under memory pressure", newest)
		rj.cancel(guard.ErrShed)
	}
}

// requeueShed returns every shed job to the queue once pressure
// clears. submitMu serializes this against cancellation of a shed job
// and against admissions reading the in-flight count.
func (s *Server) requeueShed() {
	s.submitMu.Lock()
	defer s.submitMu.Unlock()
	for _, j := range s.store.list() {
		if j.State != StateShed {
			continue
		}
		if _, err := s.store.update(j.ID, func(j *Job) {
			j.State = StateQueued
			j.Resumes++
		}); err != nil {
			s.cfg.Logf("serve: job %s: requeue after shed: %v", j.ID, err)
			continue
		}
		s.cfg.Logf("serve: job %s re-queued after brownout", j.ID)
		s.enqueue(j.ID)
	}
}

// fleet is the default device list: every Table 3 profile.
func fleet() []string {
	profs := gpu.Profiles()
	out := make([]string, 0, len(profs))
	for _, p := range profs {
		out = append(out, p.ShortName)
	}
	return out
}

// --- queue ---

// enqueue appends without a depth check — boot recovery and requeues
// bypass admission (they re-enter jobs the server already accepted).
func (s *Server) enqueue(id string) {
	s.qmu.Lock()
	s.queue = append(s.queue, id)
	s.qmu.Unlock()
	s.qcond.Signal()
}

// tryEnqueue appends subject to the depth bound.
func (s *Server) tryEnqueue(id string) bool {
	s.qmu.Lock()
	defer func() {
		s.qmu.Unlock()
		s.qcond.Signal()
	}()
	if len(s.queue) >= s.cfg.QueueDepth {
		return false
	}
	s.queue = append(s.queue, id)
	return true
}

// wakeWorkers broadcasts under qmu. The condition workers re-check in
// next includes ctx.Err(), which is not guarded by qmu — a bare
// Broadcast could fire between a worker's check and its Wait, losing
// the wakeup forever. Holding qmu forces the broadcast to land either
// before the worker's check (it sees the cancelled ctx) or after it
// parks (it is woken).
func (s *Server) wakeWorkers() {
	s.qmu.Lock()
	s.qcond.Broadcast()
	s.qmu.Unlock()
}

// queueDepth reports the current backlog.
func (s *Server) queueDepth() int {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	return len(s.queue)
}

// dequeue removes a specific job (cancellation of a queued job);
// false means a runner already claimed it.
func (s *Server) dequeue(id string) bool {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	for i, q := range s.queue {
		if q == id {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			return true
		}
	}
	return false
}

// next blocks until a job is available — and drain is not paused by a
// brownout — or ctx ends. Pausing parks the worker without losing its
// place; unpausing goes through wakeWorkers.
func (s *Server) next(ctx context.Context) (string, bool) {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	for len(s.queue) == 0 || s.paused.Load() {
		if ctx.Err() != nil {
			return "", false
		}
		s.qcond.Wait()
	}
	if ctx.Err() != nil {
		return "", false
	}
	id := s.queue[0]
	s.queue = s.queue[1:]
	return id, true
}

// --- runner pool ---

// worker drains the queue until ctx ends.
func (s *Server) worker(ctx context.Context) {
	defer s.wg.Done()
	for {
		id, ok := s.next(ctx)
		if !ok {
			return
		}
		s.runJob(ctx, id)
	}
}

// runJob executes one job end to end: state transitions, progress
// fan-out, budget supervision, artifact publication and terminal
// classification.
func (s *Server) runJob(ctx context.Context, id string) {
	// A queue entry can go stale when its job was cancelled while
	// parked in the shed state; drop it instead of reviving the job.
	if j, ok := s.store.get(id); !ok || j.State != StateQueued {
		return
	}
	jctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	rj := &runningJob{cancel: cancel}
	s.mu.Lock()
	s.running[id] = rj
	s.mu.Unlock()
	defer func() {
		s.watchdog.Forget(id)
		s.mu.Lock()
		delete(s.running, id)
		s.mu.Unlock()
		s.metrics.forget(id)
	}()

	job, err := s.store.update(id, func(j *Job) {
		j.State = StateRunning
		now := time.Now().UTC()
		j.StartedAt = &now
	})
	if err != nil {
		// The transition rolled back (update is atomic), but the job is
		// already off the queue — fail it so it doesn't sit "queued"
		// with no runner ever coming; resubmission can re-queue it.
		s.cfg.Logf("serve: job %s: start: %v", id, err)
		now := time.Now().UTC()
		s.finishJob(id, func(j *Job) {
			j.State = StateFailed
			j.Error = fmt.Sprintf("persist start transition: %v", err)
			j.FinishedAt = &now
		})
		return
	}
	s.cfg.Logf("serve: job %s running (%s, %d cells)", id, job.Spec.Kind, job.Cells)
	s.publishJobEvent(id, "job", job)

	// The effective budget: the spec's requested values with the
	// server defaults filled in. The watchdog enforces the wall and
	// stall budgets against the injected clock; the cell timeout rides
	// into the campaign options (and, for distributed jobs, into the
	// descriptor workers execute under).
	eff := s.cfg.Budgets.Resolve(job.Spec.budget())
	s.watchdog.Watch(id, eff.WallDeadline, eff.StallTimeout)

	onProgress := func(p sched.Progress) {
		s.mu.Lock()
		rj.last = p
		s.mu.Unlock()
		s.watchdog.Observe(id, p.Mark())
		s.metrics.observe(id, p)
		if data, err := json.Marshal(p); err == nil {
			s.hub.publish(id, event{name: "progress", data: data})
		}
	}
	res, execErr := s.execute(jctx, job, eff, onProgress)

	s.mu.Lock()
	last := rj.last
	s.mu.Unlock()
	summary := summaryOf(last)
	now := time.Now().UTC()
	cause := context.Cause(jctx)

	switch {
	case execErr != nil:
		s.finishJob(id, func(j *Job) {
			j.State = StateFailed
			j.Error = execErr.Error()
			j.FinishedAt = &now
			j.Summary = summary
		})
	case res.interrupted && errors.Is(cause, errJobCancelled):
		s.finishJob(id, func(j *Job) {
			j.State = StateCancelled
			j.FinishedAt = &now
			j.Summary = summary
		})
	case res.interrupted && (errors.Is(cause, guard.ErrDeadlineExceeded) || errors.Is(cause, guard.ErrStalled)):
		state := StateDeadlineExceeded
		if errors.Is(cause, guard.ErrStalled) {
			state = StateStalled
		}
		s.finishJob(id, func(j *Job) {
			j.State = state
			j.Error = cause.Error()
			j.FinishedAt = &now
			j.Summary = summary
		})
	case res.interrupted && errors.Is(cause, guard.ErrShed):
		// Parked, not terminal: the job re-queues when pressure clears
		// (requeueShed) or at the next boot. No terminal SSE event —
		// subscribers see the state change and keep streaming.
		shed, err := s.store.update(id, func(j *Job) {
			j.State = StateShed
			j.StartedAt = nil
			j.Summary = summary
		})
		if err != nil {
			s.cfg.Logf("serve: job %s: persist shed: %v", id, err)
		} else {
			s.publishJobEvent(id, "job", shed)
		}
		s.metrics.guardShed()
		s.cfg.Logf("serve: job %s shed under memory pressure (%d/%d cells done)", id, last.Done, last.Total)
	case res.interrupted:
		// Server shutdown: drain back to queued so the next boot
		// resumes from the checkpoint. No terminal event — the job is
		// not over.
		if _, err := s.store.update(id, func(j *Job) {
			j.State = StateQueued
			j.Resumes++
			j.StartedAt = nil
			j.Summary = summary
		}); err != nil {
			s.cfg.Logf("serve: job %s: persist drain: %v", id, err)
		}
		s.cfg.Logf("serve: job %s drained to queued (%d/%d cells done)", id, last.Done, last.Total)
	default:
		if err := diskio.WriteFileAtomic(s.fs, s.store.reportPath(id), res.artifact); err != nil {
			s.finishJob(id, func(j *Job) {
				j.State = StateFailed
				j.Error = fmt.Sprintf("publish report: %v", err)
				j.FinishedAt = &now
				j.Summary = summary
			})
			return
		}
		state := StateDone
		if res.degraded {
			state = StateDegraded
		}
		summary.StorageErr = res.storageErr
		s.finishJob(id, func(j *Job) {
			j.State = state
			j.FinishedAt = &now
			j.Summary = summary
		})
	}
}

// finishJob applies a terminal transition, bumps the completion
// counter and emits the terminal SSE event. Terminal states are
// installed in memory even when the disk refuses the record (a
// crashed filesystem must not leave a runnerless job looking alive);
// the stale on-disk record is re-queued by the next boot's recovery.
func (s *Server) finishJob(id string, fn func(*Job)) {
	j, err := s.store.updateForce(id, fn)
	if err != nil {
		if j == nil {
			s.cfg.Logf("serve: job %s: terminal state: %v", id, err)
			return
		}
		s.cfg.Logf("serve: job %s: persist terminal state: %v", id, err)
	}
	s.metrics.jobFinished(j.State)
	s.cfg.Logf("serve: job %s %s", id, j.State)
	if data, err := json.Marshal(j); err == nil {
		s.hub.finish(id, event{name: "done", data: data})
	}
}

// publishJobEvent emits a job-record event on the SSE stream.
func (s *Server) publishJobEvent(id, name string, j *Job) {
	if data, err := json.Marshal(j); err == nil {
		s.hub.publish(id, event{name: name, data: data})
	}
}

// Run serves the API on ln until ctx is cancelled, then drains:
// admission closes, SSE streams end, running jobs stop at the next
// cell boundary with their checkpoints fsynced, and interrupted jobs
// return to the queue for the next boot. Run returns nil after a
// clean drain; the caller maps ctx cancellation to its own exit
// convention.
func (s *Server) Run(ctx context.Context, ln net.Listener) error {
	poolCtx, stopPool := context.WithCancel(context.Background())
	defer stopPool()
	// A cancelled pool context must also wake workers parked in next.
	defer context.AfterFunc(poolCtx, s.wakeWorkers)()
	s.wg.Add(s.cfg.Runners)
	for i := 0; i < s.cfg.Runners; i++ {
		go s.worker(poolCtx)
	}
	// The supervision loop: the ticker provides cadence, guardTick the
	// decisions (all taken against the injected clock/memory reader).
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(s.cfg.GuardEvery)
		defer tick.Stop()
		for {
			select {
			case <-poolCtx.Done():
				return
			case <-tick.C:
				s.guardTick()
			}
		}
	}()
	hsrv := &http.Server{Handler: s.mux}
	errc := make(chan error, 1)
	go func() { errc <- hsrv.Serve(ln) }()
	select {
	case err := <-errc:
		stopPool()
		s.wakeWorkers()
		s.wg.Wait()
		return err
	case <-ctx.Done():
	}
	s.cfg.Logf("serve: draining (running jobs stop at the next cell, queue is preserved)")
	s.draining.Store(true)
	close(s.drainCh) // ends SSE streams so Shutdown below can finish
	stopPool()
	s.wakeWorkers()
	s.wg.Wait() // runners drain their jobs and persist queued state
	shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hsrv.Shutdown(shCtx); err != nil {
		hsrv.Close()
	}
	<-errc // http.ErrServerClosed
	s.cfg.Logf("serve: drain complete")
	return nil
}

// --- HTTP API ---

func (s *Server) routes() {
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /api/v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /api/v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /api/v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /api/v1/jobs/{id}/report", s.handleReport)
	s.mux.HandleFunc("GET /api/v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("DELETE /api/v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	if s.dist != nil {
		s.mux.Handle("/dist/v1/", s.dist)
	}
}

// Handler exposes the API mux (tests drive it via httptest).
func (s *Server) Handler() http.Handler { return s.mux }

// writeJSON renders a JSON response.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// writeErr renders a JSON error body.
func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// clientID identifies the caller for admission control: the X-API-Key
// header when present, else the remote address's host.
func clientID(r *http.Request) string {
	if k := r.Header.Get("X-API-Key"); k != "" {
		return k
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// SubmitResponse is the POST /api/v1/jobs body: the job record plus
// whether it already existed (idempotent resubmission).
type SubmitResponse struct {
	Job      *Job `json:"job"`
	Existing bool `json:"existing,omitempty"`
	Requeued bool `json:"requeued,omitempty"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var js JobSpec
	dec := json.NewDecoder(io.LimitReader(r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&js); err != nil {
		writeErr(w, http.StatusBadRequest, "invalid job spec: %v", err)
		return
	}
	js.normalize(fleet())
	plan, err := s.plan(&js)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "invalid job spec: %v", err)
		return
	}
	id := jobID(plan.manifest, js)
	client := clientID(r)

	// One submission at a time past this point: check-then-register
	// must not interleave with an identical concurrent submission (or
	// the same job runs on two runners), and admit's per-client count
	// must not interleave with another submission's insert (or the cap
	// is exceeded). The section is short — no campaign work, just an
	// index lookup and one small atomic file write.
	s.submitMu.Lock()
	defer s.submitMu.Unlock()

	if existing, ok := s.store.get(id); ok {
		switch existing.State {
		case StateFailed, StateCancelled, StateDeadlineExceeded, StateStalled, StatePoisoned:
			// Terminal-but-incomplete: resubmission re-queues, resuming
			// from whatever the checkpoint holds. A poisoned job gets a
			// fresh incarnation budget — resubmission is the explicit
			// human override of the quarantine.
			if !s.admit(w, client) {
				return
			}
			s.hub.reset(id)
			s.metrics.forget(id)
			job, err := s.store.update(id, func(j *Job) {
				j.State = StateQueued
				j.Error = ""
				j.Resumes++
				j.BootIncarnations = 0
				j.StartedAt = nil
				j.FinishedAt = nil
			})
			if err != nil {
				writeErr(w, http.StatusInternalServerError, "requeue: %v", err)
				return
			}
			s.enqueue(id)
			writeJSON(w, http.StatusAccepted, SubmitResponse{Job: job, Existing: true, Requeued: true})
		default:
			writeJSON(w, http.StatusOK, SubmitResponse{Job: existing, Existing: true})
		}
		return
	}

	if !s.admit(w, client) {
		return
	}
	if s.queueDepth() >= s.cfg.QueueDepth {
		w.Header().Set("Retry-After", "5")
		writeErr(w, http.StatusTooManyRequests, "queue full (%d jobs)", s.cfg.QueueDepth)
		return
	}
	job := &Job{
		ID:          id,
		Spec:        js,
		Client:      client,
		State:       StateQueued,
		Cells:       plan.cells,
		Manifest:    plan.manifest,
		SubmittedAt: time.Now().UTC(),
	}
	if err := s.store.put(job); err != nil {
		writeErr(w, http.StatusInternalServerError, "persist job: %v", err)
		return
	}
	if !s.tryEnqueue(id) {
		s.store.drop(id)
		w.Header().Set("Retry-After", "5")
		writeErr(w, http.StatusTooManyRequests, "queue full (%d jobs)", s.cfg.QueueDepth)
		return
	}
	s.cfg.Logf("serve: job %s queued by %s (%s, %d cells)", id, client, js.Kind, plan.cells)
	writeJSON(w, http.StatusAccepted, SubmitResponse{Job: job})
}

// admit applies the shared admission checks for anything that would
// put new work on the queue; it writes the rejection itself. Callers
// hold s.submitMu so the in-flight count cannot race a concurrent
// submission's insert.
func (s *Server) admit(w http.ResponseWriter, client string) bool {
	if s.draining.Load() {
		writeErr(w, http.StatusServiceUnavailable, "server is draining")
		return false
	}
	// Brownout sheds new work before it sheds running work: any
	// watermark level refuses submissions with a retry hint.
	if level, _ := s.mem.Snapshot(); level != guard.LevelOK {
		w.Header().Set("Retry-After", "10")
		s.metrics.guardSubmissionShed()
		writeErr(w, http.StatusTooManyRequests,
			"server is shedding load (memory above the %s watermark)", level)
		return false
	}
	if n := s.store.inFlight(client); n >= s.cfg.PerClient {
		w.Header().Set("Retry-After", "5")
		writeErr(w, http.StatusTooManyRequests,
			"client %s has %d jobs in flight (limit %d)", client, n, s.cfg.PerClient)
		return false
	}
	return true
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.store.list()})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.store.get(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown job")
		return
	}
	writeJSON(w, http.StatusOK, j)
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.store.get(id)
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown job")
		return
	}
	switch j.State {
	case StateDone, StateDegraded:
	default:
		writeErr(w, http.StatusConflict, "job is %s; no report", j.State)
		return
	}
	f, err := s.fs.OpenFile(s.store.reportPath(id), os.O_RDONLY, 0)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "open report: %v", err)
		return
	}
	defer f.Close()
	w.Header().Set("Content-Type", "application/json")
	io.Copy(w, f)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.store.get(id)
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown job")
		return
	}
	if j.State.Terminal() {
		writeErr(w, http.StatusConflict, "job already %s", j.State)
		return
	}
	// Queued: pull it off the queue before a runner claims it. If that
	// races with a claim, fall through to the running path.
	if s.dequeue(id) {
		now := time.Now().UTC()
		s.finishJob(id, func(j *Job) {
			j.State = StateCancelled
			j.FinishedAt = &now
		})
		j, _ := s.store.get(id)
		writeJSON(w, http.StatusOK, j)
		return
	}
	// Shed: parked with no runner and no queue entry, so cancel it
	// directly. submitMu keeps this from interleaving with requeueShed
	// putting the job back on the queue.
	s.submitMu.Lock()
	if cur, ok := s.store.get(id); ok && cur.State == StateShed {
		now := time.Now().UTC()
		s.finishJob(id, func(j *Job) {
			j.State = StateCancelled
			j.FinishedAt = &now
		})
		s.submitMu.Unlock()
		j, _ = s.store.get(id)
		writeJSON(w, http.StatusOK, j)
		return
	}
	s.submitMu.Unlock()
	s.mu.Lock()
	rj := s.running[id]
	s.mu.Unlock()
	if rj != nil {
		rj.cancel(errJobCancelled)
	}
	j, _ = s.store.get(id)
	writeJSON(w, http.StatusAccepted, j)
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.store.get(id)
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown job")
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	writeSSE := func(ev event) {
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.name, ev.data)
		flusher.Flush()
	}
	// Open with the current record so a subscriber always has a state
	// baseline even before the first snapshot.
	if data, err := json.Marshal(j); err == nil {
		writeSSE(event{name: "job", data: data})
	}
	ch, cancel := s.hub.subscribe(id)
	defer cancel()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-s.drainCh:
			return
		case ev, ok := <-ch:
			if !ok {
				return
			}
			writeSSE(ev)
			if ev.name == "done" {
				return
			}
		}
	}
}

// handleHealthz is liveness: the process is up and serving HTTP, so it
// always answers 200 — a draining server is still alive and must not be
// restarted by a liveness probe mid-drain. The body carries the same
// readiness detail /readyz gates on, for humans and scrapers.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status, _, body := s.health()
	body["status"] = status
	writeJSON(w, http.StatusOK, body)
}

// handleReadyz is readiness: 503 while draining (admission is closed)
// or while any job's checkpoint storage is degraded, so a load balancer
// stops routing new submissions to a server that would refuse or
// mishandle them; 200 otherwise.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	status, ready, body := s.health()
	body["status"] = status
	body["ready"] = ready
	code := http.StatusOK
	if !ready {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, body)
}

// health gathers the shared liveness/readiness detail: a status word,
// the readiness verdict, and the body fields both endpoints report.
// The storage gate counts currently-running jobs whose checkpoints have
// degraded to in-memory — a live signal the state disk is failing — not
// historical degraded jobs, so readiness recovers once they finish.
// cache_degraded reports the shared result cache's pass-through state;
// it never gates readiness — a degraded cache costs time, not
// correctness, so routing submissions away would be wrong.
func (s *Server) health() (status string, ready bool, body map[string]any) {
	s.mu.Lock()
	running := len(s.running)
	degraded := 0
	for _, rj := range s.running {
		if rj.last.StorageDegraded {
			degraded++
		}
	}
	s.mu.Unlock()
	draining := s.draining.Load()
	cacheDegraded := s.cache != nil && s.cache.Stats().Degraded
	// Brownout detail is deliberately non-gating: a browned-out server
	// is refusing new submissions itself (429 + Retry-After carries the
	// backpressure), and flipping readiness too would make the load
	// balancer mask the signal clients should see.
	level, heap := s.mem.Snapshot()
	counts := s.store.countByState()
	bi := buildinfo.Get()
	body = map[string]any{
		"queued":           s.queueDepth(),
		"running":          running,
		"draining":         draining,
		"storage_degraded": degraded,
		"cache_degraded":   cacheDegraded,
		"brownout":         level.String(),
		"heap_bytes":       heap,
		"shed":             counts[StateShed],
		"poisoned":         counts[StatePoisoned],
		"version":          bi.Version,
		"revision":         bi.Revision,
		"go":               bi.GoVersion,
	}
	switch {
	case draining:
		return "draining", false, body
	case degraded > 0:
		return "storage-degraded", false, body
	default:
		return "ok", true, body
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	runningJobs := len(s.running)
	cellsPerSec := 0.0
	for _, rj := range s.running {
		cellsPerSec += rj.last.CellsPerSec
	}
	s.mu.Unlock()
	level, heap := s.mem.Snapshot()
	g := gaugeSet{
		jobsByState:     s.store.countByState(),
		queueDepth:      s.queueDepth(),
		runningJobs:     runningJobs,
		cellsPerSec:     cellsPerSec,
		storageDegraded: s.store.storageDegradedCount(),
		cacheDegraded:   s.cache != nil && s.cache.Stats().Degraded,
		draining:        s.draining.Load(),
		brownoutLevel:   level,
		heapBytes:       heap,
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.render(w, g)
}
