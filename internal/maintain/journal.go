package maintain

import "mindetail/internal/tuple"

// undoEntry records the pre-mutation image of one group — either a row of
// an auxiliary table or a component row of the materialized view. old is a
// clone of the row before the mutation; nil means the group did not exist.
type undoEntry struct {
	aux *AuxTable
	mv  *MaterializedView
	key string
	old tuple.Tuple
}

// journal is a per-apply undo log. Every mutation of engine state first
// records the affected group's prior image; rollback replays the entries in
// reverse order, restoring state bit-identical to the pre-apply snapshot.
//
// The journal is recording only between begin and commit/rollback, so the
// note helpers are cheap no-ops outside an apply. The entries slice is
// reused across applies; commit zeroes retained tuple references without
// shrinking capacity, keeping the hot path allocation-lean.
type journal struct {
	ents      []undoEntry
	recording bool
}

// begin starts a fresh recording window.
func (j *journal) begin() {
	j.discard()
	j.recording = true
}

// discard drops all entries (releasing tuple references) and stops
// recording.
func (j *journal) discard() {
	for i := range j.ents {
		j.ents[i] = undoEntry{}
	}
	j.ents = j.ents[:0]
	j.recording = false
}

// noteAux records the current image of the auxiliary-table group under the
// encoded key (a scratch buffer; the journal copies it). A store read
// failure surfaces as an error BEFORE anything was journaled or mutated —
// the caller must abort the adjustment.
func (j *journal) noteAux(at *AuxTable, key []byte) error {
	if j == nil || !j.recording {
		return nil
	}
	row, ok, err := at.store.Get(key)
	if err != nil {
		return err
	}
	var old tuple.Tuple
	if ok {
		if at.store.InPlace() {
			old = row.Clone() // live row: snapshot it before the mutation
		} else {
			old = row // already a private decoded copy
		}
	}
	j.ents = append(j.ents, undoEntry{aux: at, key: string(key), old: old})
	return nil
}

// noteMV records the current image of the materialized-view group under the
// encoded key (a scratch buffer; the journal copies it).
func (j *journal) noteMV(mv *MaterializedView, key []byte) {
	if j == nil || !j.recording {
		return
	}
	var old tuple.Tuple
	if row, ok := mv.rows[string(key)]; ok {
		old = row.Clone()
	}
	j.ents = append(j.ents, undoEntry{mv: mv, key: string(key), old: old})
}

// noteMVKey is noteMV for a key already materialized as a string (no
// copy).
func (j *journal) noteMVKey(mv *MaterializedView, key string) {
	if j == nil || !j.recording {
		return
	}
	var old tuple.Tuple
	if row, ok := mv.rows[key]; ok {
		old = row.Clone()
	}
	j.ents = append(j.ents, undoEntry{mv: mv, key: key, old: old})
}

// rollback restores every journaled group to its recorded image, newest
// first, then discards the journal. Replaying in reverse order makes the
// log correct even when one apply touches the same group several times:
// the oldest (first-recorded) image wins.
func (j *journal) rollback() {
	for i := len(j.ents) - 1; i >= 0; i-- {
		e := &j.ents[i]
		if e.aux != nil {
			e.aux.restoreGroup(e.key, e.old)
		} else {
			e.mv.restoreGroup(e.key, e.old)
		}
	}
	j.discard()
}

// restoreGroup forces the group under key back to the given image (nil =
// absent), maintaining the hash indexes. In-place restores need no index
// maintenance: the engine only indexes plain attributes, and two rows under
// the same group key agree on every plain attribute by construction.
//
// rollback cannot surface errors, so a paged-store failure here leaves the
// store's sticky error set (AuxStore.Err) and the engine's validate-first
// pass rejects every later delta — the table is wedged, never silently
// inconsistent.
func (t *AuxTable) restoreGroup(key string, old tuple.Tuple) {
	cur, exists, err := t.store.GetString(key)
	if err != nil {
		return // sticky store failure; the table is wedged
	}
	switch {
	case old == nil && exists:
		t.indexRemove(cur, key)
		_ = t.store.DeleteString(key)
	case old != nil && !exists:
		_ = t.store.PutString(key, old)
		t.indexAdd(old, key)
	case old != nil && exists:
		if t.store.InPlace() {
			copy(cur, old)
		} else {
			_ = t.store.PutString(key, old)
		}
	}
}

// restoreGroup forces the materialized-view group under key back to the
// given component image (nil = absent).
func (mv *MaterializedView) restoreGroup(key string, old tuple.Tuple) {
	cur, exists := mv.rows[key]
	switch {
	case old == nil && exists:
		delete(mv.rows, key)
	case old != nil && !exists:
		mv.rows[key] = old
	case old != nil && exists:
		copy(cur, old)
	}
}
