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
// Each group is journaled once per stage: rollback only needs the image
// from before the stage's first mutation of the group, so a group already
// noted since begin is skipped. The seen sets — one for the view, one per
// auxiliary table — hold the same key strings as the entries, so a repeat
// costs one map probe and nothing else, and the entries list every touched
// group exactly once.
//
// The journal is recording only between begin and commit/rollback, so the
// note helpers are cheap no-ops outside an apply. The entries slice and the
// seen sets are reused across applies; discard zeroes retained tuple
// references without shrinking capacity, keeping the hot path
// allocation-lean, but drops a seen set that grew past scratchKeep so one
// large delta does not pin its buckets.
type journal struct {
	ents      []undoEntry
	recording bool

	mvSeen  map[string]struct{}
	auxSeen map[*AuxTable]map[string]struct{}
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
	j.mvSeen = resetSeen(j.mvSeen)
	for at, seen := range j.auxSeen {
		j.auxSeen[at] = resetSeen(seen)
	}
}

// resetSeen empties a seen set for the next stage, dropping it (nil: made
// again on first use) when it outgrew scratchKeep.
func resetSeen(seen map[string]struct{}) map[string]struct{} {
	if len(seen) > scratchKeep {
		return nil
	}
	clear(seen)
	return seen
}

// addSeen adds key to seen (made on first use) and returns the set.
func addSeen(seen map[string]struct{}, key string) map[string]struct{} {
	if seen == nil {
		seen = make(map[string]struct{})
	}
	seen[key] = struct{}{}
	return seen
}

// noteAux records row, the current image of the auxiliary-table group under
// the encoded key (a scratch buffer; the journal copies it), unless the
// group was journaled earlier in the stage. row is the store's Get result
// (nil = absent), read once by the caller before it mutates anything; the
// journal keeps a clone, because the caller goes on to mutate the image
// (an in-place store's live row, or a paged store's decoded copy that is
// written back).
func (j *journal) noteAux(at *AuxTable, key []byte, row tuple.Tuple) {
	if j == nil || !j.recording {
		return
	}
	seen := j.auxSeen[at]
	if _, dup := seen[string(key)]; dup {
		return
	}
	k := string(key)
	if j.auxSeen == nil {
		j.auxSeen = make(map[*AuxTable]map[string]struct{})
	}
	j.auxSeen[at] = addSeen(seen, k)
	var old tuple.Tuple
	if row != nil {
		old = row.Clone()
	}
	j.ents = append(j.ents, undoEntry{aux: at, key: k, old: old})
}

// noteMV records the current image of the materialized-view group under the
// encoded key (a scratch buffer; the journal copies it), unless the group
// was journaled earlier in the stage.
func (j *journal) noteMV(mv *MaterializedView, key []byte) {
	if j == nil || !j.recording {
		return
	}
	if _, dup := j.mvSeen[string(key)]; dup {
		return
	}
	j.addMV(mv, string(key))
}

// noteMVKey is noteMV for a key already materialized as a string (no
// copy).
func (j *journal) noteMVKey(mv *MaterializedView, key string) {
	if j == nil || !j.recording {
		return
	}
	if _, dup := j.mvSeen[key]; dup {
		return
	}
	j.addMV(mv, key)
}

// addMV marks a view group not yet journaled this stage as seen and
// records its image; the set and the entry share the key string.
func (j *journal) addMV(mv *MaterializedView, key string) {
	j.mvSeen = addSeen(j.mvSeen, key)
	var old tuple.Tuple
	if row, ok := mv.rows[key]; ok {
		old = row.Clone()
	}
	j.ents = append(j.ents, undoEntry{mv: mv, key: key, old: old})
}

// rollback restores every journaled group to its recorded image, newest
// first, then discards the journal. Replaying in reverse order makes the
// log correct even if a group were journaled more than once: the oldest
// (first-recorded) image wins.
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
