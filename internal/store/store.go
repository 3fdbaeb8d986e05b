package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// ErrNotFound reports a generation that is not (or no longer) in the
// store — never persisted, compacted away, or quarantined.
var ErrNotFound = errors.New("store: generation not found")

const (
	manifestName   = "manifest.json"
	manifestFormat = 1
	segPrefix      = "gen-"
	segSuffix      = ".seg"
	corruptSuffix  = ".corrupt"
)

// GenInfo is one generation as listed by Generations: its metadata plus
// where, how large and what its segment file is on disk.
type GenInfo struct {
	Meta
	File  string // base name of the segment file
	Bytes int64
	CRC32 uint32 // of the whole file (IEEE), from Append's stream, Open's scan or ImportSegment
}

// Stats is a point-in-time summary of the store for /varz.
type Stats struct {
	// Segments and Bytes describe the live (non-quarantined) segments.
	Segments int
	Bytes    int64
	// NextGen is the ID the next Append will assign.
	NextGen uint64
	// Persists / PersistErrors count Append outcomes over the store's
	// lifetime in this process; LastPersistError is the most recent
	// Append failure, "" after a success.
	Persists         int64
	PersistErrors    int64
	LastPersistError string
	// RecoveredGenerations is how many intact generations the last Open
	// found; TruncatedTails counts segments quarantined at Open because
	// of a truncated or checksum-corrupt tail.
	RecoveredGenerations int
	TruncatedTails       int
	// CompactedSegments counts segments removed by retention since Open.
	CompactedSegments int64
	// ImportedSegments counts generations installed by ImportSegment
	// (replication followers) since Open.
	ImportedSegments int64
}

// Store is a handle on one snapshot-store directory.
type Store struct {
	dir string

	mu   sync.RWMutex
	gens []GenInfo // ascending by Gen
	next uint64    // next generation ID; never decreases

	persists       int64
	persistErrors  int64
	lastPersistErr string
	recovered      int
	truncatedTails int
	compacted      int64
	imported       int64
}

// manifest is the on-disk index. Segments remain the ground truth: a
// missing or corrupt manifest is rebuilt from a directory scan, and the
// persisted next_gen only ever ratchets the ID counter forward.
type manifest struct {
	Format      int       `json:"format"`
	NextGen     uint64    `json:"next_gen"`
	Generations []GenInfo `json:"generations"`
}

// Open opens (creating if necessary) the store at dir, scanning and
// fully verifying every segment. Corrupt segments — truncated tails,
// bit flips — are quarantined with a .corrupt rename and counted; Open
// fails only on I/O errors or an unsupported format version, never on
// data corruption.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create dir: %w", err)
	}
	s := &Store{dir: dir, next: 1}

	// A manifest, if present and well-formed, contributes only its ID
	// ratchet; the generation list is rebuilt from the scan below.
	if data, err := os.ReadFile(filepath.Join(dir, manifestName)); err == nil {
		var m manifest
		if json.Unmarshal(data, &m) == nil && m.Format == manifestFormat && m.NextGen > s.next {
			s.next = m.NextGen
		}
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: scan: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		switch {
		case e.IsDir():
			continue
		case strings.HasSuffix(name, ".tmp"):
			// A crash mid-write leaves a temp file; it was never visible
			// as a segment, so it is safe to discard.
			if err := os.Remove(filepath.Join(dir, name)); err != nil {
				return nil, fmt.Errorf("store: remove stale temp: %w", err)
			}
		case strings.HasSuffix(name, corruptSuffix):
			// Quarantined by an earlier recovery; keep it from ever
			// reusing its generation ID.
			if gen, ok := genFromName(strings.TrimSuffix(name, corruptSuffix)); ok && gen >= s.next {
				s.next = gen + 1
			}
		case strings.HasPrefix(name, segPrefix) && strings.HasSuffix(name, segSuffix):
			gen, ok := genFromName(name)
			if !ok {
				continue
			}
			info, err := s.verifySegment(name, gen)
			if err != nil {
				return nil, err
			}
			if info != nil {
				s.gens = append(s.gens, *info)
			}
			if gen >= s.next {
				s.next = gen + 1
			}
		}
	}
	sort.Slice(s.gens, func(i, j int) bool { return s.gens[i].Gen < s.gens[j].Gen })
	s.recovered = len(s.gens)
	if err := s.writeManifest(); err != nil {
		return nil, err
	}
	return s, nil
}

// verifySegment checks one scanned segment end to end, quarantining it
// on corruption. It returns nil info (and nil error) for a quarantined
// segment.
func (s *Store) verifySegment(name string, gen uint64) (*GenInfo, error) {
	info, err := s.checkSegment(name, gen)
	if err == nil {
		return &info, nil
	}
	var corrupt *corruptError
	if !errors.As(err, &corrupt) {
		return nil, fmt.Errorf("store: segment %s: %w", name, err)
	}
	path := filepath.Join(s.dir, name)
	if err := os.Rename(path, path+corruptSuffix); err != nil {
		return nil, fmt.Errorf("store: quarantine %s: %w", name, err)
	}
	s.truncatedTails++
	return nil, nil
}

// checkSegment reads and verifies the segment file name, which must
// carry generation gen, and returns its listing entry.
func (s *Store) checkSegment(name string, gen uint64) (GenInfo, error) {
	info, _, err := readSegment(filepath.Join(s.dir, name), false)
	if err == nil && info.Gen != gen {
		err = corruptf("file %s carries generation %d", name, info.Gen)
	}
	info.File = name
	return info, err
}

// genFromName parses the generation ID out of a gen-<id>.seg base name.
func genFromName(name string) (uint64, bool) {
	id := strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix)
	gen, err := strconv.ParseUint(id, 10, 64)
	if err != nil || gen == 0 {
		return 0, false
	}
	return gen, true
}

func segName(gen uint64) string {
	return fmt.Sprintf("%s%020d%s", segPrefix, gen, segSuffix)
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Append persists one generation: meta (its Gen field is assigned by
// the store) plus the artifact list, written as a fully checksummed
// segment via temp file + fsync + atomic rename. On success the
// assigned Meta is returned and the manifest updated.
func (s *Store) Append(meta Meta, arts []Artifact) (Meta, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	meta.Gen = s.next
	fail := func(err error) (Meta, error) {
		s.persistErrors++
		s.lastPersistErr = err.Error()
		return Meta{}, err
	}
	info := GenInfo{Meta: meta, File: segName(meta.Gen)}
	err := writeFileAtomic(filepath.Join(s.dir, info.File), func(w io.Writer) error {
		var err error
		info.Bytes, info.CRC32, err = writeSegment(w, meta, arts)
		return err
	})
	if err != nil {
		return fail(fmt.Errorf("store: persist generation %d: %w", meta.Gen, err))
	}
	s.next++
	s.gens = append(s.gens, info)
	s.persists++
	s.lastPersistErr = ""
	if err := s.writeManifest(); err != nil {
		// The segment itself is durable and a future Open rebuilds the
		// manifest from the scan, so a manifest write failure is
		// recorded but does not fail the append.
		s.lastPersistErr = err.Error()
	}
	return meta, nil
}

// Load reads one generation's metadata and artifacts (bodies included),
// re-verifying every checksum. It returns ErrNotFound for unknown,
// compacted, or quarantined generations; a segment compacted while it
// is read is an I/O error.
func (s *Store) Load(gen uint64) (Meta, []Artifact, error) {
	g, ok := s.Generation(gen)
	if !ok {
		return Meta{}, nil, fmt.Errorf("%w: %d", ErrNotFound, gen)
	}
	info, arts, err := readSegment(filepath.Join(s.dir, g.File), true)
	if err != nil {
		return Meta{}, nil, fmt.Errorf("store: load generation %d: %w", gen, err)
	}
	return info.Meta, arts, nil
}

// Verify re-reads generation gen's segment from disk and re-checks it
// end to end — magic, version, every frame CRC, the footer's whole-file
// checksum, and that the embedded metadata carries the expected
// generation ID. It returns ErrNotFound for unknown, compacted, or
// quarantined generations and a descriptive error for any corruption.
// Unlike Open, Verify never quarantines: it is a read-only audit
// (replication followers run it after a download, `marketd -selfcheck`
// runs it over the whole data dir).
func (s *Store) Verify(gen uint64) error {
	g, ok := s.Generation(gen)
	if !ok {
		return fmt.Errorf("%w: %d", ErrNotFound, gen)
	}
	if _, err := s.checkSegment(g.File, gen); err != nil {
		return fmt.Errorf("store: verify generation %d: %w", gen, err)
	}
	return nil
}

// Generation returns the listing entry for one live generation.
func (s *Store) Generation(gen uint64) (GenInfo, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, g := range s.gens {
		if g.Gen == gen {
			return g, true
		}
	}
	return GenInfo{}, false
}

// SegmentPath returns the on-disk path of one live generation's segment
// file. Segments are immutable once visible, so the path may be opened
// and streamed without holding any store lock; a concurrent compaction
// deleting the file surfaces as an open error, never as torn bytes.
func (s *Store) SegmentPath(gen uint64) (string, bool) {
	g, ok := s.Generation(gen)
	if !ok {
		return "", false
	}
	return filepath.Join(s.dir, g.File), true
}

// ArtifactReader is a reader over one stored artifact body, with the
// artifact itself in Info.
type ArtifactReader struct {
	*bytes.Reader
	Info Artifact
}

// Close is a no-op: the body is already in memory.
func (r *ArtifactReader) Close() error { return nil }

// OpenArtifact returns a reader over generation gen's stored body for
// (key, contentType): a Load — one verified read of the whole segment —
// then the one artifact picked out of it. It stays only for the
// benchmark's store probe, where it times the store half of an uncached
// ?gen= load. It returns ErrNotFound for unknown, compacted, or
// quarantined generations and for keys the generation never persisted;
// a segment file deleted underneath the store is a read error.
func (s *Store) OpenArtifact(gen uint64, key, contentType string) (*ArtifactReader, error) {
	_, arts, err := s.Load(gen)
	if err != nil {
		return nil, err
	}
	for _, a := range arts {
		if a.Key == key && a.ContentType == contentType {
			return &ArtifactReader{Reader: bytes.NewReader(a.Body), Info: a}, nil
		}
	}
	return nil, fmt.Errorf("%w: generation %d has no %s frame for %q", ErrNotFound, gen, contentType, key)
}

// IsCorrupt reports whether err marks segment data that failed
// verification (as opposed to an I/O failure or an unknown generation).
// Replication followers use it to decide between quarantining a
// download and retrying a transient error.
func IsCorrupt(err error) bool {
	var c *corruptError
	return errors.As(err, &c)
}

// ImportSegment installs a generation received from a replication
// leader: raw segment bytes, fully re-verified (every frame CRC, the
// footer checksum, and the embedded generation ID) before they become
// visible, then written via temp file + fsync + atomic rename like any
// local append. Importing an already-present generation is an
// idempotent no-op. The ID ratchet advances past every imported
// generation, so a follower promoted to leader can never reuse an ID
// the old leader assigned. Corrupt data is rejected with an error for
// which IsCorrupt reports true; nothing is written in that case.
func (s *Store) ImportSegment(gen uint64, data []byte) (GenInfo, error) {
	if gen == 0 {
		return GenInfo{}, fmt.Errorf("store: import: generation 0 is not valid")
	}
	info, _, err := decodeSegment(data, false)
	if err != nil {
		return GenInfo{}, fmt.Errorf("store: import generation %d: %w", gen, err)
	}
	if info.Gen != gen {
		return GenInfo{}, fmt.Errorf("store: import generation %d: %w", gen,
			corruptf("segment carries generation %d", info.Gen))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, g := range s.gens {
		if g.Gen == gen {
			return g, nil // already installed; segments are immutable
		}
	}
	info.File = segName(gen)
	if err := writeFileAtomic(filepath.Join(s.dir, info.File), writeBytes(data)); err != nil {
		return GenInfo{}, fmt.Errorf("store: import generation %d: %w", gen, err)
	}
	s.gens = append(s.gens, info)
	sort.Slice(s.gens, func(i, j int) bool { return s.gens[i].Gen < s.gens[j].Gen })
	if gen >= s.next {
		s.next = gen + 1
	}
	s.imported++
	if err := s.writeManifest(); err != nil {
		// As with Append: the segment is durable, the manifest advisory.
		s.lastPersistErr = err.Error()
	}
	return info, nil
}

// Generations lists the live generations in ascending ID order.
func (s *Store) Generations() []GenInfo {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]GenInfo(nil), s.gens...)
}

// Latest returns the newest live generation, if any.
func (s *Store) Latest() (GenInfo, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(s.gens) == 0 {
		return GenInfo{}, false
	}
	return s.gens[len(s.gens)-1], true
}

// CompactTo enforces retention: at most keep newest generations remain,
// older segments are deleted. keep < 1 is a no-op (retention disabled).
// It returns how many segments were removed.
func (s *Store) CompactTo(keep int) (int, error) {
	if keep < 1 {
		return 0, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.gens) <= keep {
		return 0, nil
	}
	drop := s.gens[:len(s.gens)-keep]
	for i, g := range drop {
		if err := os.Remove(filepath.Join(s.dir, g.File)); err != nil {
			// Partial compaction: keep the list consistent with disk.
			s.gens = append([]GenInfo(nil), s.gens[i:]...)
			s.compacted += int64(i)
			return i, fmt.Errorf("store: compact: %w", err)
		}
	}
	removed := len(drop)
	s.gens = append([]GenInfo(nil), s.gens[removed:]...)
	s.compacted += int64(removed)
	if err := s.writeManifest(); err != nil {
		return removed, err
	}
	return removed, nil
}

// Stats summarizes the store's state and lifetime counters.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := Stats{
		Segments:             len(s.gens),
		NextGen:              s.next,
		Persists:             s.persists,
		PersistErrors:        s.persistErrors,
		LastPersistError:     s.lastPersistErr,
		RecoveredGenerations: s.recovered,
		TruncatedTails:       s.truncatedTails,
		CompactedSegments:    s.compacted,
		ImportedSegments:     s.imported,
	}
	for _, g := range s.gens {
		st.Bytes += g.Bytes
	}
	return st
}

// writeManifest rewrites the advisory index. Callers hold s.mu.
func (s *Store) writeManifest() error {
	m := manifest{Format: manifestFormat, NextGen: s.next, Generations: s.gens}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("store: encode manifest: %w", err)
	}
	if err := writeFileAtomic(filepath.Join(s.dir, manifestName), writeBytes(append(data, '\n'))); err != nil {
		return fmt.Errorf("store: write manifest: %w", err)
	}
	return nil
}
