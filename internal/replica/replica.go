// Package replica turns a store.Store into a read replica of a leader
// relsim-serve instance — the consumer of the leader's GET /checkpoint
// and GET /log endpoints. A Follower bootstraps by fetching the
// leader's newest checkpoint and Resetting its store onto it, then
// tails the replication feed in pages, applying each page through the
// ordinary store.Update path so MVCC snapshots, the server's versioned
// cache aging, and the follower's own WAL (when it is durable) all keep
// working exactly as they do on the leader. When the leader signals a
// gap — the follower's resume point has aged past both the in-memory
// log and the WAL-backed feed — the follower re-bootstraps
// automatically and resumes tailing.
//
// Correctness rests on two invariants of the leader's feed: updates are
// delivered contiguously by version (the follower verifies this and
// treats any hole as a gap), and query results are a pure function of
// (version, pattern) — so a replica at version v answers /search
// byte-identically to the leader at v. The follower assumes a single
// leader lineage; it cannot detect a leader that was rebuilt from
// scratch with a diverging history at the same version numbers.
package replica

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"relsim/internal/graph"
	"relsim/internal/store"
	"relsim/internal/telemetry"
)

// CheckpointVersionHeader carries the checkpoint's version on
// GET /checkpoint responses.
const CheckpointVersionHeader = "X-Relsim-Checkpoint-Version"

// Defaults for Options zero values.
const (
	DefaultPollInterval = 200 * time.Millisecond
	DefaultMaxBackoff   = 5 * time.Second
	DefaultPage         = 512
)

// Options configures a Follower. The zero value is usable.
type Options struct {
	// PollInterval is the idle cadence: how often the feed is polled
	// once the follower is caught up. While behind, pages are fetched
	// back-to-back.
	PollInterval time.Duration
	// MaxBackoff caps the exponential backoff after leader errors.
	MaxBackoff time.Duration
	// Page bounds one /log page (the leader clamps it too).
	Page int
	// Client is the HTTP client; nil uses a client with a 30s timeout.
	Client *http.Client
	// Logf, when set, receives replication lifecycle messages
	// (bootstraps, gaps, errors). log.Printf fits.
	Logf func(format string, args ...any)
}

// Status is a point-in-time view of the follower, served under
// "replication" in the follower's /stats and /healthz. Lag is reported
// two ways: LagVersions is how many versions the follower trails the
// leader's version as of the last successful poll, and LagSeconds is
// how long the follower has continuously been behind (0 while caught
// up; when the leader is unreachable it keeps growing, which is the
// point — staleness includes not being able to ask).
type Status struct {
	Leader         string  `json:"leader"`
	LeaderVersion  uint64  `json:"leader_version"`
	LocalVersion   uint64  `json:"local_version"`
	LagVersions    uint64  `json:"lag_versions"`
	LagSeconds     float64 `json:"lag_seconds"`
	CaughtUp       bool    `json:"caught_up"`
	SyncedOnce     bool    `json:"synced_once"`
	Bootstraps     uint64  `json:"bootstraps"`
	GapResyncs     uint64  `json:"gap_resyncs"`
	PagesApplied   uint64  `json:"pages_applied"`
	UpdatesApplied uint64  `json:"updates_applied"`
	Errors         uint64  `json:"errors"`
	// ThrottledPolls counts polls the leader shed with 429/503 and an
	// explicit Retry-After hint the follower honored (a subset of
	// Errors). A climbing counter here means the leader is under
	// admission pressure, not that replication is broken.
	ThrottledPolls uint64 `json:"throttled_polls"`
	LastError      string `json:"last_error,omitempty"`
}

// Follower tails a leader into a local store. Construct with New, kick
// off with Start, keep running with Run. Status is safe to call from
// any goroutine (the server's /stats and /healthz do).
type Follower struct {
	st     *store.Store
	leader string
	opt    Options
	client *http.Client

	mu            sync.Mutex
	leaderVersion uint64
	caughtUp      bool
	syncedOnce    bool
	behindSince   time.Time // zero while caught up
	bootstraps    uint64
	gapResyncs    uint64
	pages         uint64
	updates       uint64
	errs          uint64
	throttled     uint64
	lastError     string
}

// throttledError reports a leader that shed a feed or checkpoint
// request under admission control (429 rate limit or 503 shed) with an
// explicit Retry-After hint. The retry loops honor the hint instead of
// their own exponential guess: the leader knows when capacity frees
// up, and a fleet of followers hammering a shedding leader at backoff
// cadence is exactly the load it is trying to shed.
type throttledError struct {
	status  int
	after   time.Duration
	surface string // "feed" or "checkpoint"
}

func (e *throttledError) Error() string {
	return fmt.Sprintf("replica: leader %s: status %d (throttled, retry after %v)", e.surface, e.status, e.after)
}

// throttleHint extracts the leader's Retry-After hint from a shed
// response: 429 and 503 only, integer seconds only (the relsim-serve
// admission layer emits whole seconds; the HTTP-date form is not
// worth parsing for a peer we control).
func throttleHint(resp *http.Response, surface string) *throttledError {
	if resp.StatusCode != http.StatusTooManyRequests && resp.StatusCode != http.StatusServiceUnavailable {
		return nil
	}
	secs, err := strconv.Atoi(strings.TrimSpace(resp.Header.Get("Retry-After")))
	if err != nil || secs < 0 {
		return nil
	}
	return &throttledError{status: resp.StatusCode, after: time.Duration(secs) * time.Second, surface: surface}
}

// New builds a follower of the leader at base URL leaderURL (scheme +
// host, e.g. "http://10.0.0.1:8080") applying into st.
func New(st *store.Store, leaderURL string, opt Options) *Follower {
	if opt.PollInterval <= 0 {
		opt.PollInterval = DefaultPollInterval
	}
	if opt.MaxBackoff <= 0 {
		opt.MaxBackoff = DefaultMaxBackoff
	}
	if opt.Page <= 0 {
		opt.Page = DefaultPage
	}
	client := opt.Client
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	return &Follower{st: st, leader: strings.TrimRight(leaderURL, "/"), opt: opt, client: client}
}

// Leader returns the leader's base URL (the server's 403 body points
// mutation traffic at it).
func (f *Follower) Leader() string { return f.leader }

// Instrument registers the follower's replication metrics with reg as
// scrape-time callbacks over Status(): lag in versions and seconds,
// sync state, and the cumulative apply/error counters. A nil registry
// is a no-op.
func (f *Follower) Instrument(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	reg.GaugeFunc("relsim_replica_lag_versions",
		"Versions the follower trails the leader (as of the last poll).",
		func() float64 { return float64(f.Status().LagVersions) })
	reg.GaugeFunc("relsim_replica_lag_seconds",
		"How long the follower has continuously been behind; grows while the leader is unreachable.",
		func() float64 { return f.Status().LagSeconds })
	reg.GaugeFunc("relsim_replica_synced",
		"1 after the first successful sync, 0 before.",
		func() float64 {
			if f.Status().SyncedOnce {
				return 1
			}
			return 0
		})
	reg.GaugeFunc("relsim_replica_leader_version",
		"Leader version as of the last successful poll.",
		func() float64 { return float64(f.Status().LeaderVersion) })
	reg.CounterFunc("relsim_replica_bootstraps_total",
		"Checkpoint bootstraps performed.",
		func() float64 { return float64(f.Status().Bootstraps) })
	reg.CounterFunc("relsim_replica_gap_resyncs_total",
		"Re-bootstraps forced by a feed gap.",
		func() float64 { return float64(f.Status().GapResyncs) })
	reg.CounterFunc("relsim_replica_pages_applied_total",
		"Feed pages applied.",
		func() float64 { return float64(f.Status().PagesApplied) })
	reg.CounterFunc("relsim_replica_updates_applied_total",
		"Individual updates applied.",
		func() float64 { return float64(f.Status().UpdatesApplied) })
	reg.CounterFunc("relsim_replica_errors_total",
		"Replication errors (leader unreachable, malformed pages).",
		func() float64 { return float64(f.Status().Errors) })
	reg.CounterFunc("relsim_replica_throttled_polls_total",
		"Polls the leader shed with 429/503 whose Retry-After hint the follower honored.",
		func() float64 { return float64(f.Status().ThrottledPolls) })
}

// Store returns the store the follower applies into.
func (f *Follower) Store() *store.Store { return f.st }

// Status returns a point-in-time replication summary.
func (f *Follower) Status() Status {
	local := f.st.Version()
	f.mu.Lock()
	defer f.mu.Unlock()
	s := Status{
		Leader:         f.leader,
		LeaderVersion:  f.leaderVersion,
		LocalVersion:   local,
		CaughtUp:       f.caughtUp,
		SyncedOnce:     f.syncedOnce,
		Bootstraps:     f.bootstraps,
		GapResyncs:     f.gapResyncs,
		PagesApplied:   f.pages,
		UpdatesApplied: f.updates,
		Errors:         f.errs,
		ThrottledPolls: f.throttled,
		LastError:      f.lastError,
	}
	if f.leaderVersion > local {
		s.LagVersions = f.leaderVersion - local
	}
	if !f.behindSince.IsZero() {
		s.LagSeconds = time.Since(f.behindSince).Seconds()
	}
	return s
}

func (f *Follower) logf(format string, args ...any) {
	if f.opt.Logf != nil {
		f.opt.Logf("replica: "+format, args...)
	}
}

// retryWait picks the delay before the next attempt after err: the
// leader's Retry-After hint when err carries one (counted as a
// throttled poll), otherwise the caller's exponential backoff. A
// throttle hint of zero seconds falls back to the backoff — "now" is
// not a cadence.
func (f *Follower) retryWait(err error, backoff time.Duration) time.Duration {
	var th *throttledError
	if !errors.As(err, &th) {
		return backoff
	}
	f.mu.Lock()
	f.throttled++
	f.mu.Unlock()
	if th.after > 0 {
		return th.after
	}
	return backoff
}

func (f *Follower) noteError(err error) {
	f.mu.Lock()
	f.errs++
	f.lastError = err.Error()
	f.caughtUp = false
	if f.behindSince.IsZero() {
		f.behindSince = time.Now()
	}
	f.mu.Unlock()
}

// noteProgress records a successful poll that observed the leader at
// leaderVersion with the local store at local.
func (f *Follower) noteProgress(leaderVersion, local uint64, pages, ups int) {
	f.mu.Lock()
	f.leaderVersion = leaderVersion
	f.pages += uint64(pages)
	f.updates += uint64(ups)
	f.syncedOnce = true
	f.lastError = ""
	if local >= leaderVersion {
		f.caughtUp = true
		f.behindSince = time.Time{}
	} else {
		f.caughtUp = false
		if f.behindSince.IsZero() {
			f.behindSince = time.Now()
		}
	}
	f.mu.Unlock()
}

// Start performs the initial synchronization: bootstrap (when the
// leader's checkpoint is ahead of the local store — always, for a
// fresh follower) and one tailing pass to the leader's current version.
// It retries with backoff until it succeeds or ctx ends, so a follower
// can be started before its leader finishes booting. Serve traffic
// only after Start returns nil: the graph (and the label set a nil
// schema is derived from) is empty before the first bootstrap.
func (f *Follower) Start(ctx context.Context) error {
	backoff := f.opt.PollInterval
	for {
		err := f.Bootstrap(ctx)
		if err == nil {
			if err = f.syncToLive(ctx); err == nil {
				return nil
			}
		}
		if ctx.Err() != nil {
			return fmt.Errorf("replica: initial sync: %w", err)
		}
		f.noteError(err)
		wait := f.retryWait(err, backoff)
		f.logf("initial sync: %v (retrying in %v)", err, wait)
		if !sleep(ctx, wait) {
			return fmt.Errorf("replica: initial sync: %w", err)
		}
		if backoff *= 2; backoff > f.opt.MaxBackoff {
			backoff = f.opt.MaxBackoff
		}
	}
}

// Run tails the leader until ctx ends: fetch a page, apply it, repeat —
// back-to-back while behind, every PollInterval when caught up, with
// exponential backoff (capped at MaxBackoff) while the leader errors,
// and an automatic re-bootstrap when the feed signals a gap.
func (f *Follower) Run(ctx context.Context) {
	backoff := f.opt.PollInterval
	for ctx.Err() == nil {
		progressed, err := f.syncOnce(ctx)
		switch {
		case err != nil:
			if ctx.Err() != nil {
				return
			}
			f.noteError(err)
			wait := f.retryWait(err, backoff)
			f.logf("sync: %v (backing off %v)", err, wait)
			if !sleep(ctx, wait) {
				return
			}
			if backoff *= 2; backoff > f.opt.MaxBackoff {
				backoff = f.opt.MaxBackoff
			}
		case progressed:
			backoff = f.opt.PollInterval
		default:
			backoff = f.opt.PollInterval
			if !sleep(ctx, f.opt.PollInterval) {
				return
			}
		}
	}
}

// syncToLive pages until the follower reaches the leader version
// observed on the first page (later commits are Run's business).
func (f *Follower) syncToLive(ctx context.Context) error {
	for {
		progressed, err := f.syncOnce(ctx)
		if err != nil {
			return err
		}
		if !progressed {
			return nil
		}
	}
}

// syncOnce fetches and applies one feed page. It reports whether the
// follower advanced (more paging may be warranted) and handles the gap
// signal by re-bootstrapping inline.
func (f *Follower) syncOnce(ctx context.Context) (bool, error) {
	local := f.st.Version()
	feed, err := f.fetchPage(ctx, local)
	if err != nil {
		return false, err
	}
	if feed.Gap || (len(feed.Updates) > 0 && feed.Updates[0].Version != local+1) {
		// The leader cannot (or, hole in the page, did not) serve the
		// records after our resume point: re-bootstrap from a checkpoint.
		f.mu.Lock()
		f.gapResyncs++
		f.mu.Unlock()
		f.logf("gap at version %d (leader dropped through %d): re-bootstrapping", local, feed.DroppedThrough)
		if err := f.Bootstrap(ctx); err != nil {
			return false, err
		}
		// Progress only if the bootstrap actually advanced us. A gap the
		// leader's checkpoint cannot bridge either (its newest checkpoint
		// is not ahead of us — a corrupt WAL record on the leader, say)
		// would otherwise loop gap→no-op-bootstrap→gap at network speed;
		// reporting no progress routes it through the poll-interval sleep.
		return f.st.Version() > local, nil
	}
	if len(feed.Updates) > 0 {
		if err := f.apply(feed.Updates); err != nil {
			return false, err
		}
	}
	// An empty page is a poll, not an applied page — don't let idle
	// polling inflate the pages counter.
	pages := 0
	if len(feed.Updates) > 0 {
		pages = 1
	}
	f.noteProgress(feed.Version, f.st.Version(), pages, len(feed.Updates))
	return len(feed.Updates) > 0, nil
}

// fetchPage GETs one /log page from the leader.
func (f *Follower) fetchPage(ctx context.Context, since uint64) (store.Feed, error) {
	var feed store.Feed
	u := fmt.Sprintf("%s/log?since=%d&max=%d", f.leader, since, f.opt.Page)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return feed, fmt.Errorf("replica: %w", err)
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return feed, fmt.Errorf("replica: leader feed: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		if th := throttleHint(resp, "feed"); th != nil {
			return feed, th
		}
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		// A 400 here usually means the leader thinks our version is in
		// its future — a diverging leader (wiped data directory, lost
		// history). That needs an operator, not a re-bootstrap backwards.
		return feed, fmt.Errorf("replica: leader feed: status %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	if err := json.NewDecoder(resp.Body).Decode(&feed); err != nil {
		return feed, fmt.Errorf("replica: leader feed: %w", err)
	}
	return feed, nil
}

// Bootstrap fetches the leader's checkpoint and Resets the local store
// onto it — unless the local store is already at or past the
// checkpoint's version (a durable follower restarting with recovered
// state skips the transfer entirely and just resumes tailing; the
// leader answers 204 to the conditional request without sending the
// body).
func (f *Follower) Bootstrap(ctx context.Context) error {
	local := f.st.Version()
	fresh := local == 0 && f.st.Stats().Nodes == 0
	u := f.leader + "/checkpoint"
	if !fresh {
		// Conditional transfer: nothing to send if the checkpoint is not
		// ahead of us (unless we are empty — then even a version-0
		// checkpoint carries the seed graph we lack).
		u += "?if_newer_than=" + strconv.FormatUint(local, 10)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return fmt.Errorf("replica: %w", err)
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return fmt.Errorf("replica: leader checkpoint: %w", err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusNoContent:
		return nil // already at or past the leader's newest checkpoint
	default:
		if th := throttleHint(resp, "checkpoint"); th != nil {
			return th
		}
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("replica: leader checkpoint: status %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	version, err := strconv.ParseUint(resp.Header.Get(CheckpointVersionHeader), 10, 64)
	if err != nil {
		return fmt.Errorf("replica: leader checkpoint: bad %s header %q", CheckpointVersionHeader, resp.Header.Get(CheckpointVersionHeader))
	}
	g, err := graph.Read(resp.Body)
	if err != nil {
		return fmt.Errorf("replica: leader checkpoint: %w", err)
	}
	if version < local {
		// A non-conditional (fresh) request raced a leader whose newest
		// checkpoint is older than we are — possible only off the fresh
		// path, but Reset would refuse anyway; make the message clearer.
		return fmt.Errorf("replica: leader checkpoint at version %d is behind local version %d", version, local)
	}
	if err := f.st.Reset(g, version); err != nil {
		return fmt.Errorf("replica: %w", err)
	}
	f.mu.Lock()
	f.bootstraps++
	f.mu.Unlock()
	f.logf("bootstrapped from %s at version %d (%d nodes, %d edges)", f.leader, version, g.NumNodes(), g.NumEdges())
	return nil
}

// apply commits one feed page as a single write transaction, verifying
// version continuity and delegating the op dispatch (and the replayed
// node-identity check) to store.Tx.Apply — the same replay primitive
// crash recovery is built on. Applying through store.Update keeps
// every leader-side mechanism working on the follower: MVCC
// publication, cache aging via the update observer, the bounded feed
// (a follower can itself be tailed), and the follower's own WAL when
// it is durable.
func (f *Follower) apply(ups []store.Update) error {
	return f.st.Update(func(tx *store.Tx) error {
		for _, u := range ups {
			if u.Version <= tx.Version() {
				continue // overlap with already-applied history
			}
			if u.Version != tx.Version()+1 {
				return fmt.Errorf("feed hole: update at version %d after %d", u.Version, tx.Version())
			}
			if err := tx.Apply(u); err != nil {
				return err
			}
		}
		return nil
	})
}

// sleep waits d or until ctx ends, reporting whether the full wait
// elapsed.
func sleep(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// LeaderURL validates a -follow flag value: an absolute http(s) URL
// with no path, query or fragment beyond an optional trailing slash.
func LeaderURL(raw string) (string, error) {
	u, err := url.Parse(raw)
	if err != nil {
		return "", fmt.Errorf("replica: leader url: %w", err)
	}
	if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return "", fmt.Errorf("replica: leader url %q: want http(s)://host[:port]", raw)
	}
	if (u.Path != "" && u.Path != "/") || u.RawQuery != "" || u.Fragment != "" {
		return "", fmt.Errorf("replica: leader url %q: must not carry a path or query", raw)
	}
	return strings.TrimRight(raw, "/"), nil
}
