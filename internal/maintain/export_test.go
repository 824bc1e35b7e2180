package maintain

import "fmt"

// ApplyTwoPass applies d like Apply, but where the engine would stream the
// delta's bindings into the group adjust (adjustFromWalk) it takes the
// materializing path instead: deltaDetail joins every binding into a row,
// then adjustFromDetail adjusts from those rows. Deltas the engine does not
// stream apply as usual. Tests hold the streamed path to this reference.
func ApplyTwoPass(e *Engine, d Delta) error {
	if !e.tableSet[d.Table] {
		return e.Apply(d)
	}
	signed, err := e.expand(d)
	if err != nil {
		return err
	}
	if signed, err = e.localFilter(d.Table, signed); err != nil {
		return err
	}
	if !e.streams(signed) || (e.aux[e.graph.Root] == nil && d.Table != e.graph.Root) {
		return e.Apply(d)
	}
	e.stats.deltasApplied.Add(1)
	e.jnl.begin()
	err = func() error {
		if at := e.aux[d.Table]; at != nil {
			if err := e.auxApply(at, signed); err != nil {
				return err
			}
		}
		if len(signed) == 0 {
			return nil
		}
		dd, err := e.deltaDetail(d.Table, signed)
		if err != nil {
			return err
		}
		e.stats.detailRows.Add(int64(len(dd.rows)))
		return e.adjustFromDetail(dd, nil)
	}()
	if err == nil {
		err = e.auxReadErr()
	}
	if err != nil {
		e.rollbackJournal(err)
		return fmt.Errorf("two-pass apply: %w", err)
	}
	e.Commit()
	return nil
}
