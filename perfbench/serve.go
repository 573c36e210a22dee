package main

import (
	"errors"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ecocloud-go/mondrian/internal/obs"
	"github.com/ecocloud-go/mondrian/internal/serve"
	"github.com/ecocloud-go/mondrian/internal/simulate"
)

// newScheduler builds an in-process scheduler configured as the
// mondrian-serve daemon configures its own.
func newScheduler() *serve.Scheduler {
	return serve.New(serve.Config{
		Workers:         runtime.GOMAXPROCS(0),
		QueueDepth:      256,
		Obs:             obs.NewRegistry(),
		HarvestExchange: true,
		RetainSpans:     true,
		FlightDump:      os.Stderr,
		SLOTargetNs:     50e6,
	})
}

// served is one request's round trip through the scheduler.
type served struct {
	resp      serve.Response
	submitErr error
	startNs   int64 // since the loop's origin
	submitNs  int64
	endNs     int64
}

func (s served) outcome() outcome {
	if s.resp.PlanResult != nil {
		return planOutcome(s.resp.PlanResult)
	}
	return resultOutcome(s.resp.Result)
}

// check returns why a round trip failed, or "" when it succeeded: an
// admission refusal, an error, an unverified result, or (serve-scan-hot,
// whose requests repeat) a result that differs from the warm-up run of
// the same system.
func (s served) check(req request, refs map[simulate.System]outcome) string {
	var adm *serve.ErrAdmission
	switch {
	case errors.As(s.submitErr, &adm):
		return "admission refused: " + s.submitErr.Error()
	case s.submitErr != nil:
		return s.submitErr.Error()
	case s.resp.Err != nil:
		return s.resp.Err.Error()
	case !s.outcome().Verified:
		return "unverified result"
	}
	if ref, ok := refs[req.System]; ok && ref != s.outcome() {
		return "result differs from the warm-up run of the same request"
	}
	return ""
}

func roundTrip(sched *serve.Scheduler, req request, origin time.Time) served {
	var s served
	s.startNs = time.Since(origin).Nanoseconds()
	tk, err := sched.Submit(req.Tenant, req.serveRequest())
	s.submitNs = time.Since(origin).Nanoseconds() - s.startNs
	if err != nil {
		s.submitErr = err
	} else {
		s.resp = tk.Wait()
	}
	s.endNs = time.Since(origin).Nanoseconds()
	return s
}

// serveSetup builds the scheduler and sends one warm request per engine
// pool key. For serve-scan-hot the warm results are the references every
// later response of the same system must equal.
func serveSetup(wl string, seed int64) (*serve.Scheduler, map[simulate.System]outcome, time.Duration, error) {
	t0 := time.Now()
	sched := newScheduler()
	refs := map[simulate.System]outcome{}
	for _, req := range warmRequests(wl, seed) {
		s := roundTrip(sched, req, t0)
		if msg := s.check(req, nil); msg != "" {
			sched.Close()
			return nil, nil, 0, errors.New("warm-up " + req.String() + ": " + msg)
		}
		if wl == wlHot {
			refs[req.System] = s.outcome()
		}
	}
	return sched, refs, time.Since(t0), nil
}

// rotSpan is the interval one traffic rotation's requests cover.
type rotSpan struct {
	first, last int64
	n           int
}

func (r *rotSpan) add(o rotSpan) {
	if r.n == 0 || o.first < r.first {
		r.first = o.first
	}
	r.last = max(r.last, o.last)
	r.n += o.n
}

// clientLog is what one client keeps of its round trips. Responses are
// dropped as they arrive, so the benchmark's own memory stays small
// beside the program's.
type clientLog struct {
	lat, submit, queue []float64
	rots               map[int]rotSpan
	fails              []failure
}

type failure struct {
	id  int
	msg string
}

// serveLoop drives the scheduler with a closed loop of clients for d:
// each client sends its next request only after the previous response.
// Request i of the traffic goes to whichever client takes it next.
func serveLoop(sched *serve.Scheduler, tf *traffic, refs map[simulate.System]outcome, clients int, d time.Duration, st *runStats) {
	var next atomic.Int64
	var wg sync.WaitGroup
	logs := make([]clientLog, clients)
	rot := tf.rotation()
	origin := time.Now()
	deadline := origin.Add(d)
	for c := range logs {
		wg.Add(1)
		go func(l *clientLog) {
			defer wg.Done()
			l.rots = map[int]rotSpan{}
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				req := tf.at(i)
				s := roundTrip(sched, req, origin)
				if msg := s.check(req, refs); msg != "" {
					l.fails = append(l.fails, failure{i, msg})
					continue
				}
				l.lat = append(l.lat, float64(s.endNs-s.startNs)/1e6)
				l.submit = append(l.submit, float64(s.submitNs)/1e3)
				l.queue = append(l.queue, float64(s.resp.QueueNs)/1e6)
				r := l.rots[i/rot]
				r.add(rotSpan{s.startNs, s.endNs, 1})
				l.rots[i/rot] = r
			}
		}(&logs[c])
	}
	wg.Wait()
	st.WindowNs = time.Since(origin).Nanoseconds()

	rots := map[int]rotSpan{}
	var lat, submit, queue, service []float64
	for _, l := range logs {
		for _, f := range l.fails {
			st.fail(tf.at(f.id), f.msg)
		}
		lat = append(lat, l.lat...)
		submit = append(submit, l.submit...)
		queue = append(queue, l.queue...)
		for i := range l.lat {
			service = append(service, l.lat[i]-l.queue[i])
		}
		for k, r := range l.rots {
			all := rots[k]
			all.add(r)
			rots[k] = all
		}
	}
	st.Completed = len(lat)
	st.Attempted = st.Completed + st.Failed
	all := latencies(lat, st.Failed, st.WindowNs)
	st.LatN = len(all)
	st.LatP50, st.LatP99 = quantile(all, 0.50), quantile(all, 0.99)
	var whole []float64
	for _, r := range rots {
		if r.n == rot {
			whole = append(whole, float64(r.last-r.first)/1e6)
		}
	}
	st.RotN = len(whole)
	st.RotMs = median(whole)
	st.Layers = map[string]float64{
		"serve.submit_us_p50":     quantile(submit, 0.50),
		"serve.queue_wait_ms_p50": quantile(queue, 0.50),
		"serve.queue_wait_ms_p99": quantile(queue, 0.99),
		"serve.service_ms_p50":    quantile(service, 0.50),
		"serve.service_ms_p99":    quantile(service, 0.99),
	}
}
