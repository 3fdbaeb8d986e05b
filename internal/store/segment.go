package store

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"time"
)

// Segment file layout constants; see the package documentation for the
// full format specification.
const (
	segMagic   = "IPV4SEG1"
	segVersion = 1

	frameMeta     = 1
	frameArtifact = 2
	frameFooter   = 0xFF
)

// Meta describes one persisted generation: identity, provenance, and
// the build statistics the history API reports. It is JSON-encoded into
// the segment's metadata frame.
type Meta struct {
	// Gen is the store-assigned generation ID (monotonic, never reused).
	Gen uint64 `json:"gen"`
	// Created is when the snapshot was built (not when it was persisted).
	Created time.Time `json:"created"`

	// Seed, NumLIRs and RoutingDays identify the simulation config the
	// snapshot was built from (the knobs the daemon exposes as flags).
	Seed        int64 `json:"seed"`
	NumLIRs     int   `json:"num_lirs"`
	RoutingDays int   `json:"routing_days"`

	// Workers, BuildNS and Stages mirror the snapshot's build telemetry
	// so /v1/history can report stage timings for generations whose
	// in-memory snapshot is long gone.
	Workers int     `json:"workers"`
	BuildNS int64   `json:"build_ns"`
	Stages  []Stage `json:"stages,omitempty"`

	// Transfers is the transfer count of the persisted world; a restored
	// snapshot reports it without decoding the transfer log.
	Transfers int `json:"transfers"`
}

// Stage is one build stage's wall-clock cost inside a Meta.
type Stage struct {
	Name string `json:"name"`
	NS   int64  `json:"ns"`
}

// Artifact is one persisted response body with its serving metadata.
// The same key may appear once per content type (a JSON and a CSV
// encoding of the same endpoint are two artifacts).
type Artifact struct {
	Key         string
	ContentType string
	ETag        string
	Body        []byte
}

// maxFrameBody bounds a single frame body (1 GiB) so a corrupt length
// prefix cannot drive a multi-gigabyte allocation during recovery.
const maxFrameBody = 1 << 30

// appendFrame serializes one frame onto buf and returns the extended
// slice.
func appendFrame(buf []byte, kind byte, key, ctype, etag string, body []byte) []byte {
	start := len(buf)
	buf = append(buf, kind)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(key)))
	buf = append(buf, key...)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(ctype)))
	buf = append(buf, ctype...)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(etag)))
	buf = append(buf, etag...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(body)))
	buf = append(buf, body...)
	crc := crc32.ChecksumIEEE(buf[start:])
	return binary.LittleEndian.AppendUint32(buf, crc)
}

// encodeSegment renders the complete segment file image for one
// generation. The output is deterministic for identical inputs.
func encodeSegment(meta Meta, arts []Artifact) ([]byte, error) {
	metaJSON, err := json.Marshal(meta)
	if err != nil {
		return nil, fmt.Errorf("store: encode meta: %w", err)
	}
	buf := make([]byte, 0, segmentSizeHint(len(metaJSON), arts))
	buf = append(buf, segMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, segVersion)
	buf = appendFrame(buf, frameMeta, "meta", "application/json", "", metaJSON)
	for _, a := range arts {
		if a.Key == "" {
			return nil, fmt.Errorf("store: artifact with empty key")
		}
		buf = appendFrame(buf, frameArtifact, a.Key, a.ContentType, a.ETag, a.Body)
	}
	// Footer body: frame count (meta + artifacts) then the CRC of every
	// byte written so far.
	footerBody := make([]byte, 8)
	binary.LittleEndian.PutUint32(footerBody, uint32(1+len(arts)))
	binary.LittleEndian.PutUint32(footerBody[4:], crc32.ChecksumIEEE(buf))
	buf = appendFrame(buf, frameFooter, "", "", "", footerBody)
	return buf, nil
}

// segmentSizeHint estimates the encoded size to avoid growth copies.
func segmentSizeHint(metaLen int, arts []Artifact) int {
	n := len(segMagic) + 4 + metaLen + 64
	for _, a := range arts {
		n += len(a.Key) + len(a.ContentType) + len(a.ETag) + len(a.Body) + 64
	}
	return n + 64
}

// corruptError marks a segment that failed verification; Open treats it
// as a quarantine case rather than a fatal error.
type corruptError struct {
	reason string
}

func (e *corruptError) Error() string { return "store: corrupt segment: " + e.reason }

func corruptf(format string, args ...any) error {
	return &corruptError{reason: fmt.Sprintf(format, args...)}
}

// frame is one decoded segment frame: its fields and the offset just
// past the frame (next).
type frame struct {
	kind             byte
	key, ctype, etag string
	body             []byte
	next             int
}

// decodeFrame parses one frame at buf[off:], verifying its CRC.
func decodeFrame(buf []byte, off int) (frame, error) {
	var fr frame
	fail := func(format string, args ...any) (frame, error) {
		return frame{}, corruptf(format, args...)
	}
	start := off
	if off+1 > len(buf) {
		return fail("truncated at frame kind (offset %d)", off)
	}
	fr.kind = buf[off]
	off++
	readStr := func() (string, bool) {
		if off+2 > len(buf) {
			return "", false
		}
		n := int(binary.LittleEndian.Uint16(buf[off:]))
		off += 2
		if off+n > len(buf) {
			return "", false
		}
		s := string(buf[off : off+n])
		off += n
		return s, true
	}
	var ok bool
	if fr.key, ok = readStr(); !ok {
		return fail("truncated in frame key (offset %d)", start)
	}
	if fr.ctype, ok = readStr(); !ok {
		return fail("truncated in frame content type (offset %d)", start)
	}
	if fr.etag, ok = readStr(); !ok {
		return fail("truncated in frame etag (offset %d)", start)
	}
	if off+4 > len(buf) {
		return fail("truncated at frame body length (offset %d)", start)
	}
	bodyLen := int(binary.LittleEndian.Uint32(buf[off:]))
	off += 4
	if bodyLen > maxFrameBody || off+bodyLen > len(buf) {
		return fail("truncated in frame body (offset %d, body %d bytes)", start, bodyLen)
	}
	fr.body = buf[off : off+bodyLen]
	off += bodyLen
	if off+4 > len(buf) {
		return fail("truncated at frame checksum (offset %d)", start)
	}
	want := binary.LittleEndian.Uint32(buf[off:])
	if got := crc32.ChecksumIEEE(buf[start:off]); got != want {
		return fail("frame checksum mismatch at offset %d (got %08x, want %08x)", start, got, want)
	}
	off += 4
	fr.next = off
	return fr, nil
}

// decodeSegment parses and fully verifies a segment image: magic,
// version, every frame CRC, and the footer's whole-file checksum. When
// loadBodies is false, artifact frames are verified but not returned
// (Open's scan pass, Verify, ImportSegment); the metadata frame is
// always decoded.
func decodeSegment(buf []byte, loadBodies bool) (Meta, []Artifact, error) {
	var meta Meta
	if len(buf) < len(segMagic)+4 {
		return meta, nil, corruptf("short header (%d bytes)", len(buf))
	}
	if string(buf[:len(segMagic)]) != segMagic {
		return meta, nil, corruptf("bad magic")
	}
	if v := binary.LittleEndian.Uint32(buf[len(segMagic):]); v != segVersion {
		// An unknown format version is not corruption — refuse loudly so
		// a downgrade cannot quarantine segments a newer binary wrote.
		return meta, nil, fmt.Errorf("store: unsupported segment version %d (have %d)", v, segVersion)
	}
	var (
		arts     []Artifact
		frames   uint32
		haveMeta bool
		off      = len(segMagic) + 4
	)
	for {
		if off == len(buf) {
			return meta, nil, corruptf("missing footer (clean EOF after %d frames)", frames)
		}
		footerStart := off
		fr, err := decodeFrame(buf, off)
		if err != nil {
			return meta, nil, err
		}
		off = fr.next
		switch fr.kind {
		case frameMeta:
			if haveMeta {
				return meta, nil, corruptf("duplicate metadata frame")
			}
			if err := json.Unmarshal(fr.body, &meta); err != nil {
				return meta, nil, corruptf("metadata frame: %v", err)
			}
			haveMeta = true
			frames++
		case frameArtifact:
			if !haveMeta {
				return meta, nil, corruptf("artifact frame before metadata frame")
			}
			if loadBodies {
				arts = append(arts, Artifact{
					Key:         fr.key,
					ContentType: fr.ctype,
					ETag:        fr.etag,
					Body:        append([]byte(nil), fr.body...),
				})
			}
			frames++
		case frameFooter:
			if len(fr.body) != 8 {
				return meta, nil, corruptf("footer body is %d bytes, want 8", len(fr.body))
			}
			wantFrames := binary.LittleEndian.Uint32(fr.body)
			if wantFrames != frames {
				return meta, nil, corruptf("footer frame count %d, read %d", wantFrames, frames)
			}
			wantCRC := binary.LittleEndian.Uint32(fr.body[4:])
			if got := crc32.ChecksumIEEE(buf[:footerStart]); got != wantCRC {
				return meta, nil, corruptf("segment checksum mismatch (got %08x, want %08x)", got, wantCRC)
			}
			if off != len(buf) {
				return meta, nil, corruptf("%d trailing bytes after footer", len(buf)-off)
			}
			if !haveMeta {
				return meta, nil, corruptf("no metadata frame")
			}
			return meta, arts, nil
		default:
			return meta, nil, corruptf("unknown frame kind %d at offset %d", fr.kind, footerStart)
		}
	}
}

// readSegment loads and verifies the segment file at path.
func readSegment(path string, loadBodies bool) (Meta, []Artifact, int64, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return Meta{}, nil, 0, fmt.Errorf("store: read segment: %w", err)
	}
	meta, arts, err := decodeSegment(buf, loadBodies)
	if err != nil {
		return Meta{}, nil, int64(len(buf)), err
	}
	return meta, arts, int64(len(buf)), nil
}

// writeFileAtomic writes data to path via a temp file in the same
// directory, fsyncs it, renames it into place, and fsyncs the directory
// so the rename itself is durable.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".*.tmp")
	if err != nil {
		return fmt.Errorf("store: create temp: %w", err)
	}
	tmpName := tmp.Name()
	cleanup := func() { os.Remove(tmpName) }
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		cleanup()
		return fmt.Errorf("store: write temp: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		cleanup()
		return fmt.Errorf("store: sync temp: %w", err)
	}
	if err := tmp.Close(); err != nil {
		cleanup()
		return fmt.Errorf("store: close temp: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		cleanup()
		return fmt.Errorf("store: rename into place: %w", err)
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a just-renamed entry survives a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: open dir for sync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("store: sync dir: %w", err)
	}
	return nil
}
