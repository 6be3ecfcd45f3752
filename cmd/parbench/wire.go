package main

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/kernel"
	"repro/internal/serve"
	"repro/internal/wire"
)

// wireTarget resolves the -wire flag into a dial target. "loopback"
// means the demo spins its own listener on a real TCP socket (the CI
// smoke path); "unix:PATH" and "host:port" target a running parserve.
func wireTarget(flagVal string) (network, addr string) {
	if p, ok := strings.CutPrefix(flagVal, "unix:"); ok {
		return "unix", p
	}
	return "tcp", flagVal
}

// wireFront is a pool of wire clients presented as one serve.Front, so
// the closed-loop and open-loop demo drivers run unchanged over a
// socket. Each concurrent request borrows a client (one connection,
// serialized round trips) from the freelist, dialing a new one when
// all are busy — connection count scales with concurrency exactly as
// the listener is designed for.
type wireFront struct {
	network, addr string

	mu   sync.Mutex
	free []*wire.Client
}

func (f *wireFront) get() (*wire.Client, error) {
	f.mu.Lock()
	if n := len(f.free); n > 0 {
		cl := f.free[n-1]
		f.free = f.free[:n-1]
		f.mu.Unlock()
		return cl, nil
	}
	f.mu.Unlock()
	cl, err := wire.Dial(f.network, f.addr)
	if err != nil {
		return nil, fmt.Errorf("wire: dial: %w", err)
	}
	return cl, nil
}

// put returns a client to the freelist — unless err says the
// connection itself is suspect. Admission errors (rejected, deadline,
// closed) arrive as error frames on an intact stream and keep the
// client; anything else could have left the stream mid-frame.
func (f *wireFront) put(cl *wire.Client, err error) {
	if err != nil && !errors.Is(err, serve.ErrRejected) &&
		!errors.Is(err, serve.ErrDeadlineExceeded) && !errors.Is(err, serve.ErrClosed) {
		cl.Close()
		return
	}
	f.mu.Lock()
	f.free = append(f.free, cl)
	f.mu.Unlock()
}

func (f *wireFront) closeClients() {
	f.mu.Lock()
	free := f.free
	f.free = nil
	f.mu.Unlock()
	for _, cl := range free {
		cl.Close()
	}
}

func (f *wireFront) CallBudget(tenant string, k *kernel.Kernel, a *kernel.Args, budget time.Duration) error {
	cl, err := f.get()
	if err != nil {
		return err
	}
	err = cl.CallBudget(tenant, k, a, budget)
	f.put(cl, err)
	return err
}

func (f *wireFront) CallDeltaBudget(tenant string, k *kernel.Kernel, a *kernel.Args, d *kernel.Delta, budget time.Duration) error {
	cl, err := f.get()
	if err != nil {
		return err
	}
	err = cl.CallDeltaBudget(tenant, k, a, d, budget)
	f.put(cl, err)
	return err
}
