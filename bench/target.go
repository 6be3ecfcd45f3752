package main

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/rescache"
	"repro/internal/scratch"
	"repro/internal/serve"
	"repro/internal/wire"
)

// The one server configuration every workload runs against: what
// `parserve -shards 2 -workers 2 -cache on` builds.
const (
	serverShards  = 2
	serverWorkers = 2
)

// target is a running server plus the connections of the callers
// driving it: parserve as a child process, or the same stack built in
// this process (embed_skew, and every traced run).
type target struct {
	backends []wire.Backend
	clients  []*wire.Client
	child    *child
	stack    *stack
}

// counts is the conservation side of a drained server's counters.
type counts struct {
	wireRequests, wireResponses, wireErrors int64
	accepted, completed, expired            int64
}

// conserved checks that every request decoded off the wire was
// answered and every admitted request finished exactly once.
func (c counts) conserved() error {
	if c.wireRequests != c.wireResponses+c.wireErrors {
		return fmt.Errorf("wire requests %d != responses %d + errors %d", c.wireRequests, c.wireResponses, c.wireErrors)
	}
	if c.accepted != c.completed+c.expired {
		return fmt.Errorf("serve accepted %d != completed %d + expired %d", c.accepted, c.completed, c.expired)
	}
	return nil
}

// openTarget starts the server for w and connects callers backends to
// it. A non-nil tracer selects the in-process stack with the
// serve.call span recorded around its entry point.
func openTarget(w *workload, callers int, parserve string, t *tracer) (*target, error) {
	tg := &target{}
	addr := ""
	switch {
	case w.embed || t != nil:
		st, err := newStack(!w.embed, t)
		if err != nil {
			return nil, err
		}
		tg.stack = st
		if w.embed {
			for range callers {
				tg.backends = append(tg.backends, st.front)
			}
			return tg, nil
		}
		addr = st.ln.Addr().String()
	default:
		ch, err := startChild(parserve)
		if err != nil {
			return nil, err
		}
		tg.child, addr = ch, ch.addr
	}
	for range callers {
		cl, err := wire.Dial("tcp", addr)
		if err != nil {
			tg.close()
			return nil, fmt.Errorf("dial %s: %w", addr, err)
		}
		tg.clients = append(tg.clients, cl)
		tg.backends = append(tg.backends, cl)
	}
	return tg, nil
}

// cpu is the CPU time the server has used: the parserve child's, or,
// in-process, the whole benchmark's (server and load generator are
// one process there).
func (tg *target) cpu() (time.Duration, error) {
	if tg.child != nil {
		return tg.child.cpu()
	}
	return selfCPU(), nil
}

// close disconnects the callers, drains the server and checks the
// conservation invariants on its final counters.
func (tg *target) close() error {
	for _, cl := range tg.clients {
		cl.Close()
	}
	var c counts
	var err error
	if tg.child != nil {
		c, err = tg.child.stop()
	} else {
		c, err = tg.stack.close()
	}
	if err != nil {
		return err
	}
	return c.conserved()
}

func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail for RUSAGE_SELF with a valid pointer
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stack is the serving stack built in-process exactly as
// cmd/parserve/main.go builds it for -shards 2 -workers 2 -cache on.
type stack struct {
	cache *rescache.Cache
	sh    *serve.Sharded
	front wire.Backend   // sh, or sh behind the serve.call span
	ln    *wire.Listener // nil when embedded
}

func newStack(listen bool, t *tracer) (*stack, error) {
	st := &stack{cache: rescache.New(rescache.Config{})}
	procs := serverWorkers / serverShards
	st.sh = serve.NewSharded(serve.ShardedConfig{
		Shards:     serverShards,
		ShardProcs: procs,
		Config:     serve.Config{Workers: procs, Cache: st.cache},
	})
	st.front = st.sh
	if t != nil {
		st.front = tracedBackend{be: st.sh, t: t}
	}
	if listen {
		ln, err := wire.Listen("tcp", "127.0.0.1:0", st.front, wire.Config{})
		if err != nil {
			st.sh.Close()
			return nil, fmt.Errorf("listen: %w", err)
		}
		st.ln = ln
	}
	return st, nil
}

// close drains the stack and empties the cache, after which every
// scratch slab the run borrowed from the process pool must be back.
func (st *stack) close() (counts, error) {
	var c counts
	if st.ln != nil {
		st.ln.Close()
		ws := st.ln.Stats()
		c.wireRequests, c.wireResponses, c.wireErrors = ws.Requests, ws.Responses, ws.Errors
	}
	st.sh.Close()
	ss := st.sh.Stats().Aggregate
	c.accepted, c.completed, c.expired = ss.Accepted, ss.Completed, ss.Expired
	for _, tn := range tenants {
		st.cache.Bump(tn)
	}
	if live := scratch.Default().Stats().BytesLive; live != 0 {
		return c, fmt.Errorf("scratch: %d bytes still on loan after drain", live)
	}
	return c, nil
}

// child is a running parserve process.
type child struct {
	cmd   *exec.Cmd
	addr  string
	lines *bufio.Scanner
}

// startChild launches parserve on an ephemeral loopback port and
// reads the bound address from its "listening on" line.
func startChild(bin string) (*child, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0",
		"-shards", strconv.Itoa(serverShards), "-workers", strconv.Itoa(serverWorkers), "-cache", "on")
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, fmt.Errorf("parserve: %w", err)
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("parserve: %w", err)
	}
	ch := &child{cmd: cmd, lines: bufio.NewScanner(out)}
	if ch.lines.Scan() {
		// parserve: listening on tcp 127.0.0.1:PORT (shards=...)
		f := strings.Fields(ch.lines.Text())
		if len(f) >= 5 && f[1] == "listening" {
			ch.addr = f[4]
			return ch, nil
		}
	}
	cmd.Process.Kill()
	cmd.Wait()
	return nil, fmt.Errorf("parserve: no listening line (got %q)", ch.lines.Text())
}

// clockTick is the kernel's USER_HZ, the unit of the CPU fields of
// /proc/<pid>/stat; it is 100 on every Linux architecture Go runs on.
const clockTick = time.Second / 100

// cpu returns the child's user plus system time from /proc/<pid>/stat.
func (ch *child) cpu() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", ch.cmd.Process.Pid))
	if err != nil {
		return 0, fmt.Errorf("parserve cpu: %w", err)
	}
	// The command name (field 2) may hold spaces; fields are counted
	// from the parenthesis that closes it. utime and stime are fields
	// 14 and 15.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("parserve cpu: short stat line %q", s)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, fmt.Errorf("parserve cpu: %w", err)
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// rssMB returns the peak resident set (VmHWM) of process pid — a
// number, or "self" — in MiB.
func rssMB(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, fmt.Errorf("rss: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			if err != nil {
				return 0, fmt.Errorf("rss: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("rss: no VmHWM line in /proc/%s/status", pid)
}

// stopTimeout bounds how long a SIGTERMed parserve may drain before
// it is killed.
const stopTimeout = 20 * time.Second

// stop sends SIGTERM, reads parserve's drain lines and reaps it. The
// child is gone when stop returns, whatever it returns.
func (ch *child) stop() (counts, error) {
	var c counts
	if err := ch.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		ch.cmd.Process.Kill()
		ch.cmd.Wait()
		return c, fmt.Errorf("parserve: signal: %w", err)
	}
	kill := time.AfterFunc(stopTimeout, func() { ch.cmd.Process.Kill() })
	defer kill.Stop()
	var gotWire, gotServe bool
	for ch.lines.Scan() {
		line := ch.lines.Text()
		var skip int64 // fields the invariants do not use
		switch {
		case strings.HasPrefix(line, "wire:"):
			n, _ := fmt.Sscanf(line, "wire: conns=%d requests=%d responses=%d chunks=%d errors=%d",
				&skip, &c.wireRequests, &c.wireResponses, &skip, &c.wireErrors)
			gotWire = n == 5
		case strings.HasPrefix(line, "serve:"):
			n, _ := fmt.Sscanf(line, "serve: accepted=%d completed=%d rejected=%d dlrej=%d expired=%d",
				&c.accepted, &c.completed, &skip, &skip, &c.expired)
			gotServe = n == 5
		}
	}
	if err := ch.cmd.Wait(); err != nil {
		return c, fmt.Errorf("parserve: %w", err)
	}
	if !gotWire || !gotServe {
		return c, errors.New("parserve: drain output lacks its wire: and serve: lines")
	}
	return c, nil
}
