// Package modelstore is a crash-safe, versioned on-disk store for trained
// BehavIoT artifacts: pipeline snapshots, streaming monitor state and
// daemon counters. Each Write lands a complete new
// generation directory (gen-000001, gen-000002, …) via the classic
// temp-dir + fsync + rename protocol, with a manifest written last that
// carries the format version, a training-configuration fingerprint, and a
// CRC32C per file. Load verifies every checksum and silently falls back
// to the newest intact earlier generation when the latest is torn or
// corrupt — a process killed mid-checkpoint resumes from the previous
// checkpoint, never from garbage. A retention policy prunes old
// generations so the store stays bounded.
//
// Generations come in two kinds. A full generation stores every snapshot
// file verbatim. A delta generation (enabled by Options.FullEvery > 1)
// stores, per file, only a snapio.Diff against the parent generation's
// materialized content; its manifest records the chain parent, and the
// on-disk files carry a ".delta" suffix. Load materializes a delta
// generation by walking its chain back to the base full and patching
// forward, verifying every link (manifest CRCs gate the stored bytes,
// the delta codec's own checksums gate the reconstruction). A torn or
// corrupt delta therefore invalidates only its chain suffix: Load falls
// back to the longest verified prefix, never to garbage. See DESIGN.md
// ("Store format") for the normative chain rules.
package modelstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"behaviot/internal/faultfs"
	"behaviot/internal/snapio"
)

// FormatVersion guards the store layout (directory structure + manifest
// schema). Generations written by a different format version are ignored.
const FormatVersion = 1

// Canonical snapshot file names used across the daemon. The store
// itself accepts any names; these constants keep writers and readers
// agreeing.
const (
	FilePipeline = "pipeline.snap" // core.MarshalPipeline bytes
	FileMonitor  = "monitor.snap"  // stream.Monitor.MarshalState bytes
)

// Generation kinds as reported by Report. In manifests a full
// generation's kind is the empty string (omitted from the JSON), so
// stores written before delta support read back unchanged.
const (
	KindFull  = "full"
	KindDelta = "delta"
)

// ErrNoSnapshot is returned by Load when no intact generation matches.
var ErrNoSnapshot = errors.New("modelstore: no intact snapshot")

// WriteError is the typed failure Write returns: which store operation
// failed, on what path, and why. It unwraps to the underlying cause,
// so errors.Is(err, syscall.ENOSPC) and errors.Is(err,
// faultfs.ErrInjected) both work through it. Callers pacing checkpoint
// retries branch on this type rather than parsing messages.
type WriteError struct {
	Op   string // "mkdir", "stage", "manifest", "sync-dir", "rename", "list"
	Path string
	Err  error
}

func (e *WriteError) Error() string {
	return "modelstore: " + e.Op + " " + e.Path + ": " + e.Err.Error()
}

func (e *WriteError) Unwrap() error { return e.Err }

// castagnoli is the CRC32C table (same polynomial as iSCSI/ext4 metadata
// checksums; better error detection than IEEE for short bursts).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// manifestName is written LAST inside the staging directory: a
// generation without a readable manifest is by definition torn and is
// skipped (and garbage-collected) by Load.
const manifestName = "manifest.json"

const (
	genPrefix = "gen-"
	tmpPrefix = ".tmp-"

	// deltaSuffix is appended to the on-disk name of every file in a
	// delta generation, so a directory listing (and a faultfs path
	// rule) can tell delta payloads from full snapshots at a glance.
	// Manifests always record the logical name.
	deltaSuffix = ".delta"
)

// fileEntry describes one snapshot file in the manifest. Size and
// CRC32C cover the bytes as stored on disk — the delta payload for a
// delta generation, the full content otherwise.
type fileEntry struct {
	Name   string `json:"name"`
	Size   int64  `json:"size"`
	CRC32C uint32 `json:"crc32c"`
}

// manifest is the generation's self-description. Kind and Parent are
// zero-valued (and omitted from the JSON) for full generations, so
// pre-delta manifests parse identically.
type manifest struct {
	FormatVersion int         `json:"format_version"`
	Fingerprint   string      `json:"fingerprint"`
	Kind          string      `json:"kind,omitempty"`   // "" (full) or "delta"
	Parent        int         `json:"parent,omitempty"` // chain parent generation, delta only
	Files         []fileEntry `json:"files"`
}

// Options tunes a store.
type Options struct {
	// Retain is how many intact generations to keep per fingerprint
	// (default 3, minimum 1). Older generations are pruned after a
	// successful Write, except full generations a retained delta still
	// chains to — those survive until their dependents are pruned.
	Retain int
	// FullEvery enables differential checkpointing: every FullEvery-th
	// generation is a full snapshot and the ones between are deltas
	// against their predecessor. Values <= 1 (the default) write a
	// full generation every time — the pre-delta behavior, bit for
	// bit.
	FullEvery int
	// FS, if set, routes every filesystem operation through it (a
	// faultfs.Injector in fault soaks). Nil means the real filesystem.
	FS faultfs.FS
}

// Store is a generation-versioned snapshot directory. Methods are not
// concurrency-safe (the daemon serializes checkpoints on one
// goroutine), with one exception: Stats may be called concurrently
// with Write, for metrics scraping.
//
// Write retains the file contents passed to it (the delta for the next
// generation is computed against them), so callers must not mutate the
// byte slices after a successful Write.
type Store struct {
	dir       string
	retain    int
	fullEvery int
	fs        faultfs.FS

	// Materialized content of the newest generation, kept so a delta
	// write can diff against its parent without re-reading the chain.
	// Invalidated whenever lastGen no longer matches the store's
	// latest generation on disk.
	lastGen   int
	lastFP    string
	lastDepth int // deltas since the base full (0 = lastGen is full)
	lastFiles map[string][]byte

	statFulls      atomic.Uint64
	statDeltas     atomic.Uint64
	statFullBytes  atomic.Uint64
	statDeltaBytes atomic.Uint64

	// beforeFile, when non-nil, runs before each staged file write with
	// the file's on-disk name — the kill-mid-write test hook.
	beforeFile func(name string)
}

// WriteStats counts what this Store instance has written since Open:
// how many full and delta generations, and their payload bytes (sum of
// snapshot file sizes as stored, manifests excluded). The fleet's
// checkpoint-bytes metrics and the delta-chain size ratchet read these.
type WriteStats struct {
	Fulls      uint64
	Deltas     uint64
	FullBytes  uint64
	DeltaBytes uint64
}

// Stats returns the write counters. Safe to call concurrently with
// Write.
func (s *Store) Stats() WriteStats {
	return WriteStats{
		Fulls:      s.statFulls.Load(),
		Deltas:     s.statDeltas.Load(),
		FullBytes:  s.statFullBytes.Load(),
		DeltaBytes: s.statDeltaBytes.Load(),
	}
}

// Snapshot is one intact loaded generation, fully materialized: Files
// holds the reconstructed content regardless of whether the generation
// was stored full or as a delta chain.
type Snapshot struct {
	Generation  int
	Fingerprint string
	Files       map[string][]byte
}

// Open creates (if needed) and opens a store rooted at dir.
func Open(dir string, opts Options) (*Store, error) {
	if opts.Retain <= 0 {
		opts.Retain = 3
	}
	fsys := opts.FS
	if fsys == nil {
		fsys = faultfs.OS{}
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("modelstore: %w", err)
	}
	return &Store{
		dir:       dir,
		retain:    opts.Retain,
		fullEvery: opts.FullEvery,
		fs:        fsys,
	}, nil
}

// generations lists the store's gen-N directories, ascending.
func (s *Store) generations() ([]int, error) {
	entries, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	var gens []int
	for _, e := range entries {
		if !e.IsDir() || !strings.HasPrefix(e.Name(), genPrefix) {
			continue
		}
		n, err := strconv.Atoi(strings.TrimPrefix(e.Name(), genPrefix))
		if err != nil || n <= 0 {
			continue
		}
		gens = append(gens, n)
	}
	sort.Ints(gens)
	return gens, nil
}

func (s *Store) genPath(gen int) string {
	return filepath.Join(s.dir, fmt.Sprintf("%s%06d", genPrefix, gen))
}

// Latest returns the highest generation number present (0 when empty).
// Presence does not imply integrity; Load verifies that.
func (s *Store) Latest() (int, error) {
	gens, err := s.generations()
	if err != nil {
		return 0, err
	}
	if len(gens) == 0 {
		return 0, nil
	}
	return gens[len(gens)-1], nil
}

// planDelta decides whether the next generation can be a delta against
// the current latest one. It can when FullEvery > 1, the latest
// generation materializes intact under the same fingerprint, and fewer
// than FullEvery-1 deltas have accumulated since the last full. Any
// doubt — corrupt parent, fingerprint change, fresh store — degrades to
// a full snapshot, never to an unverifiable chain.
func (s *Store) planDelta(fp string, latest int) (map[string][]byte, bool) {
	if s.fullEvery <= 1 || latest == 0 {
		return nil, false
	}
	if s.lastGen != latest || s.lastFP != fp {
		snap, depth, err := s.loadChain(latest)
		if err != nil || snap.Fingerprint != fp {
			return nil, false
		}
		s.lastGen, s.lastFP, s.lastDepth, s.lastFiles = latest, fp, depth, snap.Files
	}
	if s.lastDepth+1 >= s.fullEvery {
		return nil, false
	}
	return s.lastFiles, true
}

// Write lands files as a complete new generation and returns its number.
// The protocol: stage everything in a dot-prefixed temp directory (each
// file written then fsynced), write the manifest last, fsync the staging
// directory, rename it into place, fsync the store root. A crash at any
// point leaves either the previous generation as newest, or a temp/
// manifest-less directory that Load skips and the next Write sweeps.
//
// With Options.FullEvery > 1 the generation may be stored as a delta
// against its predecessor (see planDelta); the staged files are then
// the snapio.Diff payloads under name+".delta", and the manifest
// records the chain parent. The write protocol is identical either
// way.
func (s *Store) Write(fingerprint string, files map[string][]byte) (int, error) {
	latest, err := s.Latest()
	if err != nil {
		return 0, &WriteError{Op: "list", Path: s.dir, Err: err}
	}
	gen := latest + 1
	parentFiles, asDelta := s.planDelta(fingerprint, latest)

	m := manifest{FormatVersion: FormatVersion, Fingerprint: fingerprint}
	if asDelta {
		m.Kind = KindDelta
		m.Parent = latest
	}
	names := make([]string, 0, len(files))
	for name := range files {
		if name == manifestName || name != filepath.Base(name) ||
			strings.HasPrefix(name, ".") || strings.HasSuffix(name, deltaSuffix) {
			return 0, fmt.Errorf("modelstore: invalid snapshot file name %q", name)
		}
		names = append(names, name)
	}
	sort.Strings(names)

	tmp := filepath.Join(s.dir, fmt.Sprintf("%s%s%06d", tmpPrefix, genPrefix, gen))
	if err := s.fs.RemoveAll(tmp); err != nil {
		return 0, &WriteError{Op: "stage", Path: tmp, Err: err}
	}
	if err := s.fs.Mkdir(tmp, 0o755); err != nil {
		return 0, &WriteError{Op: "mkdir", Path: tmp, Err: err}
	}
	cleanup := true
	defer func() {
		if cleanup {
			s.fs.RemoveAll(tmp) //lint:ignore errcheck best-effort cleanup after a failed write; a stale staging dir is removed on the next attempt
		}
	}()

	var payloadBytes uint64
	for _, name := range names {
		data := files[name]
		disk := name
		if asDelta {
			data = snapio.Diff(parentFiles[name], data)
			disk += deltaSuffix
		}
		if s.beforeFile != nil {
			s.beforeFile(disk)
		}
		path := filepath.Join(tmp, disk)
		if err := s.writeFileSync(path, data); err != nil {
			return 0, &WriteError{Op: "stage", Path: path, Err: err}
		}
		payloadBytes += uint64(len(data))
		m.Files = append(m.Files, fileEntry{
			Name:   name,
			Size:   int64(len(data)),
			CRC32C: crc32.Checksum(data, castagnoli),
		})
	}
	mdata, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		return 0, fmt.Errorf("modelstore: %w", err)
	}
	if s.beforeFile != nil {
		s.beforeFile(manifestName)
	}
	mpath := filepath.Join(tmp, manifestName)
	if err := s.writeFileSync(mpath, append(mdata, '\n')); err != nil {
		return 0, &WriteError{Op: "manifest", Path: mpath, Err: err}
	}
	if err := s.syncDir(tmp); err != nil {
		return 0, &WriteError{Op: "sync-dir", Path: tmp, Err: err}
	}
	if err := s.fs.Rename(tmp, s.genPath(gen)); err != nil {
		return 0, &WriteError{Op: "rename", Path: s.genPath(gen), Err: err}
	}
	cleanup = false
	if err := s.syncDir(s.dir); err != nil {
		return 0, &WriteError{Op: "sync-dir", Path: s.dir, Err: err}
	}

	s.lastGen, s.lastFP, s.lastFiles = gen, fingerprint, files
	if asDelta {
		s.lastDepth++
		s.statDeltas.Add(1)
		s.statDeltaBytes.Add(payloadBytes)
	} else {
		s.lastDepth = 0
		s.statFulls.Add(1)
		s.statFullBytes.Add(payloadBytes)
	}
	s.prune(gen)
	return gen, nil
}

// Load returns the newest intact generation whose fingerprint matches
// (any fingerprint when fp is empty). Generations failing any integrity
// check — unreadable or version-mismatched manifest, missing files, size
// or CRC32C mismatch, or a delta whose chain does not materialize — are
// skipped in favor of the next older one. A torn delta therefore costs
// only its chain suffix: every generation before it still loads.
// ErrNoSnapshot is returned when nothing qualifies.
func (s *Store) Load(fp string) (*Snapshot, error) {
	gens, err := s.generations()
	if err != nil {
		return nil, fmt.Errorf("modelstore: %w", err)
	}
	for i := len(gens) - 1; i >= 0; i-- {
		snap, _, err := s.loadChain(gens[i])
		if err != nil {
			continue // torn or corrupt: fall back to the previous one
		}
		if fp != "" && snap.Fingerprint != fp {
			continue // trained under a different configuration
		}
		return snap, nil
	}
	return nil, ErrNoSnapshot
}

// genRecord is one generation as stored: its manifest plus the raw
// on-disk bytes of every file (delta payloads for delta generations),
// each verified against the manifest's size and CRC.
type genRecord struct {
	man manifest
	raw map[string][]byte
}

// readGeneration reads and integrity-checks one generation's stored
// bytes without materializing its chain.
func (s *Store) readGeneration(gen int) (*genRecord, error) {
	dir := s.genPath(gen)
	mdata, err := s.fs.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(mdata, &m); err != nil {
		return nil, fmt.Errorf("manifest: %w", err)
	}
	if m.FormatVersion != FormatVersion {
		return nil, fmt.Errorf("format version %d (want %d)", m.FormatVersion, FormatVersion)
	}
	switch m.Kind {
	case "", KindFull:
		if m.Parent != 0 {
			return nil, fmt.Errorf("full generation claims parent %d", m.Parent)
		}
	case KindDelta:
		if m.Parent <= 0 || m.Parent >= gen {
			return nil, fmt.Errorf("delta parent %d out of range", m.Parent)
		}
	default:
		return nil, fmt.Errorf("unknown generation kind %q", m.Kind)
	}
	rec := &genRecord{man: m, raw: make(map[string][]byte, len(m.Files))}
	for _, fe := range m.Files {
		if fe.Name != filepath.Base(fe.Name) {
			return nil, fmt.Errorf("manifest names non-local file %q", fe.Name)
		}
		disk := fe.Name
		if m.Kind == KindDelta {
			disk += deltaSuffix
		}
		data, err := s.fs.ReadFile(filepath.Join(dir, disk))
		if err != nil {
			return nil, err
		}
		if int64(len(data)) != fe.Size {
			return nil, fmt.Errorf("%s: size %d (manifest says %d)", disk, len(data), fe.Size)
		}
		if sum := crc32.Checksum(data, castagnoli); sum != fe.CRC32C {
			return nil, fmt.Errorf("%s: crc32c %08x (manifest says %08x)", disk, sum, fe.CRC32C)
		}
		rec.raw[fe.Name] = data
	}
	return rec, nil
}

// loadChain reads and fully verifies generation gen, materializing it
// through its delta chain: parents are followed back to the base full
// (every link checked — stored CRCs, matching fingerprints, sane parent
// pointers) and the deltas patched forward, each patch validated by the
// codec's own checksums. The second result is the number of deltas
// between gen and its base full (0 when gen is full).
func (s *Store) loadChain(gen int) (*Snapshot, int, error) {
	var chain []*genRecord
	for g := gen; ; {
		rec, err := s.readGeneration(g)
		if err != nil {
			return nil, 0, fmt.Errorf("gen %d: %w", g, err)
		}
		if len(chain) > 0 && rec.man.Fingerprint != chain[0].man.Fingerprint {
			return nil, 0, fmt.Errorf("gen %d: fingerprint differs from chain head", g)
		}
		chain = append(chain, rec)
		if rec.man.Kind != KindDelta {
			break
		}
		g = rec.man.Parent
	}
	files := chain[len(chain)-1].raw
	for i := len(chain) - 2; i >= 0; i-- {
		rec := chain[i]
		out := make(map[string][]byte, len(rec.man.Files))
		for _, fe := range rec.man.Files {
			patched, err := snapio.Patch(files[fe.Name], rec.raw[fe.Name])
			if err != nil {
				return nil, 0, fmt.Errorf("gen %d: %s: %w", gen, fe.Name, err)
			}
			out[fe.Name] = patched
		}
		files = out
	}
	return &Snapshot{
		Generation:  gen,
		Fingerprint: chain[0].man.Fingerprint,
		Files:       files,
	}, len(chain) - 1, nil
}

// liteRec is the manifest-level view of a generation used for retention
// decisions: enough to group by fingerprint and follow chain parents
// without reading (or verifying) any snapshot bytes.
type liteRec struct {
	gen    int
	fp     string
	kind   string
	parent int
	ok     bool // manifest readable and structurally sane
}

func (s *Store) readLite(gen int) liteRec {
	rec := liteRec{gen: gen}
	mdata, err := s.fs.ReadFile(filepath.Join(s.genPath(gen), manifestName))
	if err != nil {
		return rec
	}
	var m manifest
	if err := json.Unmarshal(mdata, &m); err != nil || m.FormatVersion != FormatVersion {
		return rec
	}
	rec.fp, rec.kind, rec.parent, rec.ok = m.Fingerprint, m.Kind, m.Parent, true
	if m.Kind == KindDelta && (m.Parent <= 0 || m.Parent >= gen) {
		rec.ok = false
	}
	return rec
}

// keepSet computes which generations retention preserves: per
// fingerprint, the newest `retain` generations, plus the full chain
// closure of every kept delta — a full snapshot is never pruned
// while a retained delta still chains to it. Generations with
// unreadable manifests form their own group, so torn garbage ages out
// at the same rate without occupying a real fingerprint's quota.
func keepSet(recs []liteRec, retain int) map[int]bool {
	byGen := make(map[int]liteRec, len(recs))
	groups := make(map[string][]liteRec)
	for _, r := range recs {
		byGen[r.gen] = r
		key := r.fp
		if !r.ok {
			key = "\x00broken" // cannot collide with a real fingerprint: Write never stores NULs
		}
		groups[key] = append(groups[key], r)
	}
	keep := make(map[int]bool)
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		g := groups[k]
		for _, r := range g[max(0, len(g)-retain):] {
			keep[r.gen] = true
			// Chain closure: a kept delta pins every ancestor down to
			// its base full. Parent pointers strictly decrease, so
			// this terminates; a dangling parent just ends the walk
			// (the chain is broken anyway and Load will skip it).
			for cur := r; cur.ok && cur.kind == KindDelta; {
				next, present := byGen[cur.parent]
				if !present {
					break
				}
				keep[next.gen] = true
				cur = next
			}
		}
	}
	return keep
}

// prune removes stale temp directories and generations beyond the
// retention count. Only generations no newer than `newest` are
// candidates; retention is per fingerprint and chain-safe (see
// keepSet), using manifest-level metadata only — the just-written
// generation is known intact, and re-verifying every older one on each
// checkpoint would defeat the point of cheap deltas. A corrupt older
// generation therefore still counts toward its fingerprint's quota
// until newer writes age it out. Prune errors are deliberately
// swallowed: a failed cleanup must not fail a checkpoint.
func (s *Store) prune(newest int) {
	entries, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return
	}
	var recs []liteRec
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, tmpPrefix) {
			s.fs.RemoveAll(filepath.Join(s.dir, name)) //lint:ignore errcheck pruning is best-effort; a leftover dir is retried on the next write
			continue
		}
		if !e.IsDir() || !strings.HasPrefix(name, genPrefix) {
			continue
		}
		n, err := strconv.Atoi(strings.TrimPrefix(name, genPrefix))
		if err != nil || n <= 0 || n > newest {
			continue
		}
		recs = append(recs, s.readLite(n))
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].gen < recs[j].gen })
	keep := keepSet(recs, s.retain)
	for _, r := range recs {
		if !keep[r.gen] {
			s.fs.RemoveAll(s.genPath(r.gen)) //lint:ignore errcheck pruning is best-effort; a leftover dir is retried on the next write
		}
	}
}

// GenInfo is one generation's row in a Report: its stored metadata,
// on-disk payload size, and whether its whole chain materializes.
type GenInfo struct {
	Generation  int
	Kind        string // KindFull or KindDelta
	Parent      int    // 0 for full generations
	Fingerprint string
	Deltas      int   // deltas between this generation and its base full
	Bytes       int64 // stored payload bytes (manifest excluded)
	Intact      bool
	Err         error // why the chain does not materialize, when !Intact
}

// Report fully verifies every generation and describes each one —
// the machinery behind behaviotd -verify-store. The Intact rows are the
// soaks' "no lost generations" oracle: after a faulted-then-retried
// checkpoint, the newest pre-fault generation must still be intact.
func (s *Store) Report() ([]GenInfo, error) {
	gens, err := s.generations()
	if err != nil {
		return nil, fmt.Errorf("modelstore: %w", err)
	}
	infos := make([]GenInfo, 0, len(gens))
	for _, g := range gens {
		info := GenInfo{Generation: g, Kind: KindFull}
		if lite := s.readLite(g); lite.ok {
			info.Fingerprint = lite.fp
			info.Parent = lite.parent
			if lite.kind == KindDelta {
				info.Kind = KindDelta
			}
			// Payload size comes from the manifest so a report never
			// has to re-read file bytes it already verified.
			var m manifest
			if mdata, err := s.fs.ReadFile(filepath.Join(s.genPath(g), manifestName)); err == nil {
				if json.Unmarshal(mdata, &m) == nil {
					for _, fe := range m.Files {
						info.Bytes += fe.Size
					}
				}
			}
		}
		if _, depth, err := s.loadChain(g); err == nil {
			info.Intact = true
			info.Deltas = depth
		} else {
			info.Err = err
		}
		infos = append(infos, info)
	}
	return infos, nil
}

// writeFileSync writes data and fsyncs before closing, so the bytes are
// durable before the directory rename can make them visible.
func (s *Store) writeFileSync(path string, data []byte) error {
	f, err := s.fs.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close() //lint:ignore errcheck write error already being reported
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close() //lint:ignore errcheck sync error already being reported
		return err
	}
	return f.Close()
}

// syncDir fsyncs a directory so renames/creates within it are durable.
// Filesystems that refuse directory fsync (some CI overlays) are
// tolerated: the rename protocol still gives atomicity, just weaker
// durability.
func (s *Store) syncDir(dir string) error {
	d, err := s.fs.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, errors.ErrUnsupported) {
		return err
	}
	return nil
}
