package store

import (
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
// where and how large it is on disk.
type GenInfo struct {
	Meta
	File  string // base name of the segment file
	Bytes int64

	// frames indexes the artifact frames inside the segment file
	// (bodyless, Offset/Length populated) so OpenArtifact can serve a
	// body straight from the sealed file. It is rebuilt from the segment
	// scan on Open, never trusted from the manifest, and unexported so
	// the manifest JSON stays unchanged.
	frames []Artifact
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
	path := filepath.Join(s.dir, name)
	meta, arts, size, err := readSegment(path, false)
	if err == nil && meta.Gen != gen {
		err = corruptf("file %s carries generation %d", name, meta.Gen)
	}
	if err == nil {
		return &GenInfo{Meta: meta, File: name, Bytes: size, frames: arts}, nil
	}
	var corrupt *corruptError
	if !errors.As(err, &corrupt) {
		return nil, fmt.Errorf("store: segment %s: %w", name, err)
	}
	if err := os.Rename(path, path+corruptSuffix); err != nil {
		return nil, fmt.Errorf("store: quarantine %s: %w", name, err)
	}
	s.truncatedTails++
	return nil, nil
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
	buf, index, err := encodeSegment(meta, arts)
	if err != nil {
		return fail(err)
	}
	name := segName(meta.Gen)
	if err := writeFileAtomic(filepath.Join(s.dir, name), buf); err != nil {
		return fail(fmt.Errorf("store: persist generation %d: %w", meta.Gen, err))
	}
	s.next++
	s.gens = append(s.gens, GenInfo{Meta: meta, File: name, Bytes: int64(len(buf)), frames: index})
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
// compacted, or quarantined generations.
func (s *Store) Load(gen uint64) (Meta, []Artifact, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, g := range s.gens {
		if g.Gen != gen {
			continue
		}
		meta, arts, _, err := readSegment(filepath.Join(s.dir, g.File), true)
		if err != nil {
			return Meta{}, nil, fmt.Errorf("store: load generation %d: %w", gen, err)
		}
		return meta, arts, nil
	}
	return Meta{}, nil, fmt.Errorf("%w: %d", ErrNotFound, gen)
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
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, g := range s.gens {
		if g.Gen != gen {
			continue
		}
		meta, _, _, err := readSegment(filepath.Join(s.dir, g.File), false)
		if err != nil {
			return fmt.Errorf("store: verify generation %d: %w", gen, err)
		}
		if meta.Gen != gen {
			return fmt.Errorf("store: verify generation %d: %w", gen,
				corruptf("file %s carries generation %d", g.File, meta.Gen))
		}
		return nil
	}
	return fmt.Errorf("%w: %d", ErrNotFound, gen)
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

// ArtifactReader is an open, read-only view of one artifact body inside
// a sealed segment file: an io.ReadSeeker/io.ReaderAt suitable for
// http.ServeContent (Range requests included). Reads go through pread
// into the caller's buffer; to send the body without that copy, a
// writer takes the file itself from SectionFile. The caller must Close
// it when done serving. Segments are immutable, so the bytes read are
// exactly the bytes Append wrote; the frame's stored ETag is in Info.
type ArtifactReader struct {
	*io.SectionReader
	f    *os.File
	Info Artifact // bodyless frame metadata (Key, ContentType, ETag, Offset, Length)
}

// Close releases the underlying segment file handle.
func (r *ArtifactReader) Close() error { return r.f.Close() }

// SectionFile positions the segment file at the body byte the reader
// would read next (the frame offset plus the section's current
// position) and returns the file with the number of body bytes left.
// Reading the file from there, up to that count, yields exactly the
// bytes the section would, so a caller can hand them to sendfile; it
// must then Seek the reader past what it consumed. The file's own
// offset is independent of the section, which reads by position.
func (r *ArtifactReader) SectionFile() (*os.File, int64, error) {
	pos, _ := r.Seek(0, io.SeekCurrent) // fails only for an invalid whence
	if _, err := r.f.Seek(r.Info.Offset+pos, io.SeekStart); err != nil {
		return nil, 0, fmt.Errorf("store: position artifact %q: %w", r.Info.Key, err)
	}
	return r.f, max(r.Size()-pos, 0), nil
}

// OpenArtifact opens generation gen's segment file and returns a
// zero-copy reader over the stored body for (key, contentType). It
// returns ErrNotFound for unknown, compacted, or quarantined
// generations and for keys the generation never persisted. The file is
// opened per call: a segment deleted by concurrent compaction surfaces
// as an open error here, never as torn bytes on an established reader.
func (s *Store) OpenArtifact(gen uint64, key, contentType string) (*ArtifactReader, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for i := range s.gens {
		g := &s.gens[i]
		if g.Gen != gen {
			continue
		}
		for _, fr := range g.frames {
			if fr.Key != key || fr.ContentType != contentType {
				continue
			}
			f, err := os.Open(filepath.Join(s.dir, g.File))
			if err != nil {
				return nil, fmt.Errorf("store: open artifact %q gen %d: %w", key, gen, err)
			}
			return &ArtifactReader{
				SectionReader: io.NewSectionReader(f, fr.Offset, fr.Length),
				f:             f,
				Info:          fr,
			}, nil
		}
		return nil, fmt.Errorf("%w: generation %d has no %s frame for %q", ErrNotFound, gen, contentType, key)
	}
	return nil, fmt.Errorf("%w: %d", ErrNotFound, gen)
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
	meta, arts, err := decodeSegment(data, false)
	if err != nil {
		return GenInfo{}, fmt.Errorf("store: import generation %d: %w", gen, err)
	}
	if meta.Gen != gen {
		return GenInfo{}, fmt.Errorf("store: import generation %d: %w", gen,
			corruptf("segment carries generation %d", meta.Gen))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, g := range s.gens {
		if g.Gen == gen {
			return g, nil // already installed; segments are immutable
		}
	}
	name := segName(gen)
	if err := writeFileAtomic(filepath.Join(s.dir, name), data); err != nil {
		return GenInfo{}, fmt.Errorf("store: import generation %d: %w", gen, err)
	}
	info := GenInfo{Meta: meta, File: name, Bytes: int64(len(data)), frames: arts}
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
	if err := writeFileAtomic(filepath.Join(s.dir, manifestName), append(data, '\n')); err != nil {
		return fmt.Errorf("store: write manifest: %w", err)
	}
	return nil
}
