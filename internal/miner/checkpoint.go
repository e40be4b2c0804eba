package miner

import (
	"encoding/json"
	"fmt"
	"sort"
)

// FeedCheckpointVersion is the serialization version of the feed's WAL
// snapshot sidecar. Restore rejects versions it does not understand and the
// mutation bus falls back to a full rebuild scan. Version 2 escapes the
// items inside itemset keys; version 1 keys joined raw items with ',', so an
// item containing ',' read back as several.
const FeedCheckpointVersion = 2

// feedState is the serializable state of a Feed: the incremental miner's
// counters, whether still buffering the warm-up batch or already frozen.
type feedState struct {
	NumTx int `json:"numTx"`

	Frozen bool `json:"frozen,omitempty"`
	// Counts is keyed by itemset: escaped items joined by ','.
	Counts     map[string]int `json:"counts,omitempty"`
	Vocabulary []string       `json:"vocabulary,omitempty"`
	WarmupTx   [][]string     `json:"warmupTx,omitempty"`
}

// Checkpoint serialises the feed's state. It runs in the store's
// StateWithCheckpoints critical section, so the counts describe exactly the
// snapshotted records.
//
// A retired feed refuses to checkpoint: retirement means a full mining
// Result supersedes its rules, and that Result is in-memory only — it does
// not survive a restart. Restoring an empty retired feed would leave the
// recommender with no rule source at all until the next mining pass, which
// is strictly worse than the rebuild fallback (a fresh, active feed mined
// from the restored store). So retirement is deliberately not durable.
func (f *Feed) Checkpoint() (int, []byte, error) {
	f.mu.Lock()
	if f.retired {
		f.mu.Unlock()
		return 0, nil, fmt.Errorf("miner: feed is retired; recovery must rebuild an active feed")
	}
	st := feedState{NumTx: f.inc.numTx}
	st.Frozen = f.inc.frozen
	st.Counts = f.inc.counts
	st.WarmupTx = f.inc.warmupTx
	st.Vocabulary = make([]string, 0, len(f.inc.vocabulary))
	for item := range f.inc.vocabulary {
		st.Vocabulary = append(st.Vocabulary, item)
	}
	sort.Strings(st.Vocabulary)
	// Marshal under f.mu: the referenced maps stay shared with the live
	// miner, and only bus callbacks (serialised with this checkpoint by the
	// store's commit lock) ever write them — but Rules() snapshots and cache
	// invalidation also take f.mu, so holding it keeps the state coherent.
	data, err := json.Marshal(st)
	f.mu.Unlock()
	if err != nil {
		return 0, nil, fmt.Errorf("miner: encoding feed checkpoint: %w", err)
	}
	return FeedCheckpointVersion, data, nil
}

// Restore replaces the feed's state with a previously checkpointed one. An
// unknown version or decode failure is returned as an error so the caller
// falls back to the full rebuild scan.
func (f *Feed) Restore(version int, data []byte) error {
	if version != FeedCheckpointVersion {
		return fmt.Errorf("miner: unknown feed checkpoint version %d", version)
	}
	var st feedState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("miner: decoding feed checkpoint: %w", err)
	}
	inc := NewIncrementalMiner(f.cfg, f.warmup)
	inc.numTx = st.NumTx
	inc.frozen = st.Frozen
	if st.Counts != nil {
		inc.counts = st.Counts
	}
	for _, item := range st.Vocabulary {
		inc.vocabulary[item] = true
	}
	inc.warmupTx = st.WarmupTx
	f.mu.Lock()
	f.inc = inc
	f.retired = false
	f.gen++
	f.rules, f.rulesValid, f.rulesAt = nil, false, 0
	f.mu.Unlock()
	return nil
}
