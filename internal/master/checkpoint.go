package master

import (
	"encoding/binary"
	"fmt"

	"repro/internal/resource"
)

// AppConfig is the hard-state record of one application: exactly the
// information the paper says must survive a FuxiMaster crash ("only hard
// states like job description need to be recorded"). Everything else —
// demand, grants, free pool — is soft state recollected from live peers.
type AppConfig struct {
	Name  string
	Group string
	Units []resource.ScheduleUnit
}

// Snapshot is one durable checkpoint image.
type Snapshot struct {
	Epoch     int
	Apps      []AppConfig
	Blacklist []string
}

// defaultCompactEvery bounds the delta log between anchors. Promotion
// replays at most this many records over the anchor, and anchor cost is
// amortized over this many churn-proportional deltas.
const defaultCompactEvery = 256

// CheckpointStore models the durable storage shared by the hot-standby
// FuxiMaster pair. Writes happen only on job submission/stop and blacklist
// changes — the paper's "light-weighted checkpoint" that avoids bookkeeping
// on the scheduling fast path.
//
// Durably, the store is a delta log: every mutation appends one compact
// delta record (encoding only what changed), and after CompactEvery records
// the log is compacted into a full anchor snapshot. Checkpoint bytes
// therefore scale with churn — jobs arriving and stopping — rather than
// with the amount of state a full snapshot would re-encode on every write.
// A promotion replays anchor+deltas (Load); the in-memory state below is
// the writer's view, used only to assemble the next anchor.
//
// Every write costs time proportional to the change: RemoveApp is O(1)
// (position index plus tombstones), and an anchor is assembled from each
// live app's cached encoded record instead of re-encoding the snapshot.
type CheckpointStore struct {
	epoch int
	// apps holds the saved applications in first-save order. RemoveApp
	// leaves a tombstone (live false) that compactApps drops once tombstones
	// outnumber live entries; pos maps a live name to its index.
	apps      []ckptApp
	pos       map[string]int
	dead      int
	blacklist []string
	// arena holds each live app's encoded record — the appendApp bytes its
	// latest opSaveApp delta carried — at apps[i].off. A replacement appends
	// a new record, so compact rebuilds the arena in apps order into spare
	// and swaps the two: records are carved from a reused buffer, not
	// allocated per SaveApp.
	arena, spare []byte

	anchor  []byte // last compacted full snapshot (nil = the empty snapshot)
	log     []byte // delta records appended since the anchor
	logRecs int    // records currently in log

	// Writes counts checkpoint mutations, demonstrating in tests that the
	// fast path never touches the store. BlacklistWrites is the subset from
	// SetBlacklist: blacklist churn is hard state on its own cadence
	// (bounded by report/flap/decay periods, not by scheduling volume), so
	// write-budget checks allot it a cap derived from the failure events a
	// scenario injects rather than from scheduling volume.
	Writes          int
	BlacklistWrites int

	// DeltaBytes and AnchorBytes split the bytes written to durable
	// storage between delta records and compaction anchors; Bytes() is
	// their sum and what CheckCheckpointBytes budgets. Compactions counts
	// anchor writes.
	DeltaBytes  int64
	AnchorBytes int64
	Compactions int

	// CompactEvery overrides the anchor cadence (records between anchors);
	// <= 0 uses defaultCompactEvery. Set before the first write.
	CompactEvery int

	// TrackFullCost, when set, additionally accumulates into FullBytes
	// what the same write sequence would have cost under the pre-delta
	// codec (a full EncodeSnapshot per write) — the counterfactual behind
	// the obs section's checkpoint-savings report. The size is computed in
	// O(1) per write from liveBytes and blackBytes, never by encoding.
	TrackFullCost bool
	FullBytes     int64

	// liveBytes sums the encoded records of the live apps (their n), and
	// blackBytes the encoded blacklist entries without the count prefix:
	// with the epoch and the live count they give the length of a full
	// EncodeSnapshot of the writer's view.
	liveBytes, blackBytes int
}

// NewCheckpointStore returns an empty store.
func NewCheckpointStore() *CheckpointStore {
	return &CheckpointStore{pos: make(map[string]int)}
}

// Bytes returns the total bytes written to durable storage (deltas plus
// anchors) — the quantity the CheckCheckpointBytes invariant budgets.
func (c *CheckpointStore) Bytes() int64 { return c.DeltaBytes + c.AnchorBytes }

// PendingDeltas returns the records a promotion would replay on top of the
// current anchor.
func (c *CheckpointStore) PendingDeltas() int { return c.logRecs }

// CompactionCadence returns the effective anchor cadence: CompactEvery when
// set, the package default otherwise. Byte-budget formulas use it.
func (c *CheckpointStore) CompactionCadence() int {
	if c.CompactEvery > 0 {
		return c.CompactEvery
	}
	return defaultCompactEvery
}

// wrote accounts one appended delta record and runs the compaction policy.
func (c *CheckpointStore) wrote(recStart int) {
	c.DeltaBytes += int64(len(c.log) - recStart)
	c.logRecs++
	c.Writes++
	if c.TrackFullCost {
		c.FullBytes += int64(c.fullSize())
	}
	if c.logRecs >= c.CompactionCadence() {
		c.compact()
	}
}

// compact folds the delta log into a fresh full anchor snapshot. The anchor
// is the EncodeSnapshot image of the writer's view, assembled from the
// cached records: the app section of an encoded snapshot is exactly the
// live records in order, which is what the rebuilt arena holds.
func (c *CheckpointStore) compact() {
	c.spare = c.spare[:0]
	for i := range c.apps {
		if e := &c.apps[i]; e.live {
			off := len(c.spare)
			c.spare = append(c.spare, c.arena[e.off:e.off+e.n]...)
			e.off = off
		}
	}
	c.arena, c.spare = c.spare, c.arena
	b := make([]byte, 0, 64+len(c.arena)+32*len(c.blacklist))
	b = append(b, snapshotVersion)
	b = binary.AppendUvarint(b, uint64(c.epoch))
	b = binary.AppendUvarint(b, uint64(len(c.apps)-c.dead))
	b = append(b, c.arena...)
	c.anchor = appendStrings(b, c.blacklist)
	c.AnchorBytes += int64(len(c.anchor))
	c.log = c.log[:0]
	c.logRecs = 0
	c.Compactions++
}

// fullSize is the length of EncodeSnapshot(c.materialize()), from the
// running sums: version byte, epoch, live count, records, blacklist.
func (c *CheckpointStore) fullSize() int {
	return 1 + uvarintLen(uint64(c.epoch)) + uvarintLen(uint64(len(c.apps)-c.dead)) +
		c.liveBytes + uvarintLen(uint64(len(c.blacklist))) + c.blackBytes
}

// uvarintLen is the length of binary.AppendUvarint's encoding of v.
func uvarintLen(v uint64) int {
	n := 1
	for ; v >= 0x80; v >>= 7 {
		n++
	}
	return n
}

// materialize builds the writer's current Snapshot view from the saved
// configs, independently of the cached records: every anchor, and every
// fullSize, must equal its encoding. Only tests read it; promotions never
// do (see Load).
func (c *CheckpointStore) materialize() Snapshot {
	s := Snapshot{Epoch: c.epoch}
	for i := range c.apps {
		if c.apps[i].live {
			s.Apps = append(s.Apps, c.apps[i].cfg)
		}
	}
	s.Blacklist = append([]string(nil), c.blacklist...)
	return s
}

// BumpEpoch increments and returns the election epoch (durable so a third
// promotion is distinguishable from the second).
func (c *CheckpointStore) BumpEpoch() int {
	c.epoch++
	start := len(c.log)
	c.log = append(c.log, opBumpEpoch)
	c.log = binary.AppendUvarint(c.log, uint64(c.epoch))
	c.wrote(start)
	return c.epoch
}

// ckptApp is one saved application: its config (the materialized view)
// and the position of its encoded record in the store's arena.
type ckptApp struct {
	cfg    AppConfig
	off, n int
	live   bool
}

// SaveApp records an application's configuration. A new app is appended
// to the order; a saved one is replaced in place.
func (c *CheckpointStore) SaveApp(a AppConfig) {
	start := len(c.log)
	c.log = append(c.log, opSaveApp)
	c.log = appendApp(c.log, a)
	e := ckptApp{cfg: a, off: len(c.arena), n: len(c.log) - start - 1, live: true}
	c.arena = append(c.arena, c.log[start+1:]...)
	c.liveBytes += e.n
	if i, ok := c.pos[a.Name]; ok {
		c.liveBytes -= c.apps[i].n
		c.apps[i] = e
	} else {
		c.pos[a.Name] = len(c.apps)
		c.apps = append(c.apps, e)
	}
	c.wrote(start)
}

// RemoveApp deletes an application's record (job stopped).
func (c *CheckpointStore) RemoveApp(name string) {
	i, ok := c.pos[name]
	if !ok {
		return
	}
	delete(c.pos, name)
	c.liveBytes -= c.apps[i].n
	c.apps[i] = ckptApp{}
	if c.dead++; c.dead > len(c.apps)-c.dead {
		c.compactApps()
	}
	start := len(c.log)
	c.log = append(c.log, opRemoveApp)
	c.log = appendString(c.log, name)
	c.wrote(start)
}

// compactApps drops the tombstones from apps, keeping the live order and
// re-indexing pos; RemoveApp runs it once tombstones outnumber live
// entries, so its cost is amortized O(1) per removal.
func (c *CheckpointStore) compactApps() {
	w := 0
	for _, e := range c.apps {
		if e.live {
			c.apps[w] = e
			c.pos[e.cfg.Name] = w
			w++
		}
	}
	clear(c.apps[w:])
	c.apps = c.apps[:w]
	c.dead = 0
}

// SetBlacklist replaces the persisted cluster blacklist.
func (c *CheckpointStore) SetBlacklist(machines []string) {
	c.blacklist = append([]string(nil), machines...)
	start := len(c.log)
	c.log = append(c.log, opSetBlacklist)
	c.log = appendStrings(c.log, machines)
	c.blackBytes = len(c.log) - start - 1 - uvarintLen(uint64(len(machines)))
	c.wrote(start)
	c.BlacklistWrites++
}

// Load rebuilds the current snapshot the way a promotion must: decode the
// anchor and replay the delta records appended since — durable bytes only,
// never the writer's in-memory view. The byte path both models the
// durable-storage read and guarantees the serialization boundary carries
// names only: no interned ID ever reaches (or is read from) durable state,
// because the format cannot express one. Load happens once per promotion,
// so the decode+replay is off every hot path.
func (c *CheckpointStore) Load() Snapshot {
	anchor := c.anchor
	if anchor == nil {
		anchor = EncodeSnapshot(Snapshot{})
	}
	s, err := DecodeSnapshot(anchor)
	if err == nil {
		err = replayDeltas(&s, c.log)
	}
	if err != nil {
		// The encoder and decoder are the same version in one binary; a
		// failure here is a programming error, not recoverable input.
		panic("master: checkpoint anchor+delta replay failed: " + err.Error())
	}
	return s
}

// ---------------------------------------------------------------------------
// snapshot wire encoding
// ---------------------------------------------------------------------------

// snapshotVersion tags the encoding; bump on incompatible format changes.
const snapshotVersion = 1

// Delta record opcodes. Each record is self-delimiting: an opcode byte
// followed by the fields that changed.
const (
	opSaveApp      = 1
	opRemoveApp    = 2
	opSetBlacklist = 3
	opBumpEpoch    = 4
)

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// appendStrings encodes a count-prefixed string list (the blacklist).
func appendStrings(b []byte, ss []string) []byte {
	b = binary.AppendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = appendString(b, s)
	}
	return b
}

func appendVector(b []byte, v resource.Vector) []byte {
	// ForEachDimension, not Dimensions: this runs per unit on every delta
	// record and anchor encode, and the sorted-copy allocation showed up
	// as ~2 allocs/decision on the failover profile.
	b = binary.AppendUvarint(b, uint64(v.NumDimensions()))
	v.ForEachDimension(func(d string, amount int64) {
		b = appendString(b, d)
		b = binary.AppendVarint(b, amount)
	})
	return b
}

// appendApp encodes one application config (shared by full snapshots and
// opSaveApp delta records).
func appendApp(b []byte, a AppConfig) []byte {
	b = appendString(b, a.Name)
	b = appendString(b, a.Group)
	b = binary.AppendUvarint(b, uint64(len(a.Units)))
	for _, u := range a.Units {
		b = binary.AppendVarint(b, int64(u.ID))
		b = binary.AppendVarint(b, int64(u.Priority))
		b = binary.AppendVarint(b, int64(u.MaxCount))
		b = appendVector(b, u.Size)
	}
	return b
}

// EncodeSnapshot serializes a checkpoint snapshot into a compact, fully
// deterministic byte form: names and amounts only, dimensions in sorted
// order. This is the name↔ID boundary — the in-memory control plane keys
// everything by dense interned IDs, but IDs are assigned in registration
// order and do not survive a process, so durable state is name-based by
// construction.
func EncodeSnapshot(s Snapshot) []byte {
	b := make([]byte, 0, 64+len(s.Apps)*64)
	b = append(b, snapshotVersion)
	b = binary.AppendUvarint(b, uint64(s.Epoch))
	b = binary.AppendUvarint(b, uint64(len(s.Apps)))
	for _, a := range s.Apps {
		b = appendApp(b, a)
	}
	return appendStrings(b, s.Blacklist)
}

// snapshotReader is a cursor over an encoded snapshot.
type snapshotReader struct {
	b   []byte
	err error
}

func (r *snapshotReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.err = fmt.Errorf("master: truncated snapshot (uvarint)")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *snapshotReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.err = fmt.Errorf("master: truncated snapshot (varint)")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *snapshotReader) string() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if uint64(len(r.b)) < n {
		r.err = fmt.Errorf("master: truncated snapshot (string)")
		return ""
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

func (r *snapshotReader) vector() resource.Vector {
	n := r.uvarint()
	var v resource.Vector
	for i := uint64(0); i < n && r.err == nil; i++ {
		dim := r.string()
		amt := r.varint()
		if r.err == nil {
			v = v.With(dim, amt)
		}
	}
	return v
}

// app decodes one application config (the appendApp inverse).
func (r *snapshotReader) app() AppConfig {
	var a AppConfig
	a.Name = r.string()
	a.Group = r.string()
	nUnits := r.uvarint()
	for j := uint64(0); j < nUnits && r.err == nil; j++ {
		var u resource.ScheduleUnit
		u.ID = int(r.varint())
		u.Priority = int(r.varint())
		u.MaxCount = int(r.varint())
		u.Size = r.vector()
		a.Units = append(a.Units, u)
	}
	return a
}

// DecodeSnapshot parses an EncodeSnapshot payload back into a snapshot.
func DecodeSnapshot(b []byte) (Snapshot, error) {
	if len(b) == 0 || b[0] != snapshotVersion {
		return Snapshot{}, fmt.Errorf("master: unknown snapshot version")
	}
	r := &snapshotReader{b: b[1:]}
	var s Snapshot
	s.Epoch = int(r.uvarint())
	nApps := r.uvarint()
	for i := uint64(0); i < nApps && r.err == nil; i++ {
		s.Apps = append(s.Apps, r.app())
	}
	nBlack := r.uvarint()
	for i := uint64(0); i < nBlack && r.err == nil; i++ {
		s.Blacklist = append(s.Blacklist, r.string())
	}
	return s, r.err
}

// replayDeltas applies a delta log to a decoded anchor snapshot in place,
// preserving SaveApp's replace-in-place / append-if-new order semantics so
// a replayed snapshot is byte-equivalent to the writer's view.
func replayDeltas(s *Snapshot, log []byte) error {
	r := &snapshotReader{b: log}
	for len(r.b) > 0 && r.err == nil {
		op := r.b[0]
		r.b = r.b[1:]
		switch op {
		case opSaveApp:
			a := r.app()
			if r.err != nil {
				break
			}
			replaced := false
			for i := range s.Apps {
				if s.Apps[i].Name == a.Name {
					s.Apps[i] = a
					replaced = true
					break
				}
			}
			if !replaced {
				s.Apps = append(s.Apps, a)
			}
		case opRemoveApp:
			name := r.string()
			if r.err != nil {
				break
			}
			for i := range s.Apps {
				if s.Apps[i].Name == name {
					s.Apps = append(s.Apps[:i], s.Apps[i+1:]...)
					break
				}
			}
		case opSetBlacklist:
			n := r.uvarint()
			if uint64(len(r.b)) < n {
				// Every machine name costs at least its one-byte length
				// prefix, so a count past the remaining log is corruption;
				// reject it before the preallocation below turns an
				// attacker-controlled size into a makeslice panic.
				r.err = fmt.Errorf("master: corrupt snapshot (blacklist count %d exceeds %d remaining bytes)", n, len(r.b))
				break
			}
			black := make([]string, 0, n)
			for i := uint64(0); i < n && r.err == nil; i++ {
				black = append(black, r.string())
			}
			if r.err == nil {
				if len(black) == 0 {
					black = nil // match the anchor codec: empty decodes as nil
				}
				s.Blacklist = black
			}
		case opBumpEpoch:
			if e := r.uvarint(); r.err == nil {
				s.Epoch = int(e)
			}
		default:
			return fmt.Errorf("master: unknown delta opcode %d", op)
		}
	}
	return r.err
}
