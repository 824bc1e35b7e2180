package maintain

import (
	"fmt"
	"runtime"
	"sync"

	"mindetail/internal/obs"
)

// Propagate applies one delta to a set of engines as one transaction: every
// engine stages it, and either all commit or none does. It is the single
// stage/commit/rollback loop, behind Warehouse.propagate.
//
// Engines stage on a pool of min(GOMAXPROCS, len(engines)) workers; with
// one worker they stage inline, in order, and the first failure stops the
// loop. Staging fans out safely because every auxiliary table is owned by
// exactly one engine, which journals only its own state.
//
// before, when non-nil, runs on the calling goroutine ahead of engine i's
// staging, in engine order; an error from it fails the apply and launches
// no later engine. occupancy, when non-nil, counts the engines staging on
// pool workers at any moment.
//
// On success every engine commits, in order. On failure the engines that
// staged roll back newest-first (a failing engine has already rolled itself
// back), and the error of the lowest-index failure is returned, naming that
// engine's view. staged counts the engines that staged successfully.
func Propagate(engines []*Engine, d Delta, before func(i int) error, occupancy *obs.Gauge) (staged int, err error) {
	n := len(engines)
	workers := min(runtime.GOMAXPROCS(0), n)
	ok := make([]bool, n)
	errs := make([]error, n)
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i, eng := range engines {
		if before != nil {
			if errs[i] = before(i); errs[i] != nil {
				break
			}
		}
		if workers <= 1 {
			if errs[i] = eng.Stage(d); errs[i] != nil {
				break
			}
			ok[i] = true
			continue
		}
		sem <- struct{}{}
		wg.Add(1)
		if occupancy != nil {
			occupancy.Add(1)
		}
		go func() {
			defer func() {
				if occupancy != nil {
					occupancy.Add(-1)
				}
				<-sem
				wg.Done()
			}()
			if errs[i] = eng.Stage(d); errs[i] == nil {
				ok[i] = true
			}
		}()
	}
	wg.Wait()
	for i := range engines {
		if ok[i] {
			staged++
		}
		if err == nil && errs[i] != nil {
			err = fmt.Errorf("view %s: %w", engines[i].view.Name, errs[i])
		}
	}
	if err == nil {
		for _, eng := range engines {
			eng.Commit()
		}
		return staged, nil
	}
	for i := n - 1; i >= 0; i-- {
		if ok[i] {
			engines[i].Rollback()
		}
	}
	return staged, err
}
