package store

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strconv"
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

// ETag formats the strong entity tag of a byte sequence with IEEE CRC-32
// crc and length size: the quoted form "%08x-%d". Served bodies and
// replicated segment files are both tagged this way.
func ETag(crc uint32, size int64) string {
	const digits = "0123456789abcdef"
	var buf [len(`"ffffffff-9223372036854775807"`)]byte
	tag := append(buf[:0], '"')
	for shift := 28; shift >= 0; shift -= 4 {
		tag = append(tag, digits[crc>>shift&0xf])
	}
	tag = strconv.AppendInt(append(tag, '-'), size, 10)
	return string(append(tag, '"'))
}

// maxFrameBody bounds a single frame body (1 GiB) so a corrupt length
// prefix cannot drive a multi-gigabyte allocation during recovery.
const maxFrameBody = 1 << 30

// segmentWriter streams one generation's segment image through a small
// buffer: the magic and version, then each frame as its header, its body
// and its CRC, keeping the whole-file CRC the footer carries as it goes.
// A body that does not fit the buffer's free space goes to the file
// directly, so a write never holds a copy of the segment. The bytes are exactly those of the segment
// format in the package documentation; the tests' in-memory encoder is
// their oracle.
type segmentWriter struct {
	w      *bufio.Writer
	crc    uint32 // CRC of every byte written so far
	n      int64  // bytes written so far
	frames uint32 // meta and artifact frames written so far
	hdr    []byte // scratch for one frame header
}

// segmentBufSize is the segmentWriter's buffer: room for the headers of
// many frames between flushes, small beside the bodies it streams.
const segmentBufSize = 32 << 10

// writeSegment streams the segment image for one generation to w and
// returns its length and its whole-file CRC-32. The artifacts' keys are
// checked before the first byte is written, so an invalid generation
// writes nothing.
func writeSegment(w io.Writer, meta Meta, arts []Artifact) (size int64, crc uint32, err error) {
	metaJSON, err := json.Marshal(meta)
	if err != nil {
		return 0, 0, fmt.Errorf("store: encode meta: %w", err)
	}
	for _, a := range arts {
		if a.Key == "" {
			return 0, 0, fmt.Errorf("store: artifact with empty key")
		}
	}
	sw := &segmentWriter{w: bufio.NewWriterSize(w, segmentBufSize)}
	var head [len(segMagic) + 4]byte
	copy(head[:], segMagic)
	binary.LittleEndian.PutUint32(head[len(segMagic):], segVersion)
	sw.write(head[:])
	sw.frame(frameMeta, "meta", "application/json", "", metaJSON)
	for _, a := range arts {
		sw.frame(frameArtifact, a.Key, a.ContentType, a.ETag, a.Body)
	}
	// Footer body: frame count (meta + artifacts) then the CRC of every
	// byte written before the footer.
	var footer [8]byte
	binary.LittleEndian.PutUint32(footer[:], sw.frames)
	binary.LittleEndian.PutUint32(footer[4:], sw.crc)
	sw.frame(frameFooter, "", "", "", footer[:])
	if err := sw.w.Flush(); err != nil {
		return 0, 0, err
	}
	return sw.n, sw.crc, nil
}

// write passes p through to the buffer, folding it into the file CRC.
func (sw *segmentWriter) write(p []byte) {
	sw.w.Write(p) // an error sticks in the bufio.Writer; Flush reports it
	sw.crc = crc32.Update(sw.crc, crc32.IEEETable, p)
	sw.n += int64(len(p))
}

// frame writes one frame: kind, the three length-prefixed strings, the
// body length, the body, and the CRC of all of those.
func (sw *segmentWriter) frame(kind byte, key, ctype, etag string, body []byte) {
	h := append(sw.hdr[:0], kind)
	for _, s := range [...]string{key, ctype, etag} {
		h = binary.LittleEndian.AppendUint16(h, uint16(len(s)))
		h = append(h, s...)
	}
	h = binary.LittleEndian.AppendUint32(h, uint32(len(body)))
	sw.hdr = h
	frameCRC := crc32.Update(crc32.ChecksumIEEE(h), crc32.IEEETable, body)
	sw.write(h)
	sw.write(body)
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], frameCRC)
	sw.write(sum[:])
	if kind != frameFooter {
		sw.frames++
	}
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
// version, every frame CRC, and the footer's whole-file checksum, which
// it extends over the footer into the listing's CRC32. When loadBodies
// is false, artifact frames are verified but not returned (Open's scan
// pass, Verify, ImportSegment).
func decodeSegment(buf []byte, loadBodies bool) (GenInfo, []Artifact, error) {
	var info GenInfo
	if len(buf) < len(segMagic)+4 {
		return info, nil, corruptf("short header (%d bytes)", len(buf))
	}
	if string(buf[:len(segMagic)]) != segMagic {
		return info, nil, corruptf("bad magic")
	}
	if v := binary.LittleEndian.Uint32(buf[len(segMagic):]); v != segVersion {
		// An unknown format version is not corruption — refuse loudly so
		// a downgrade cannot quarantine segments a newer binary wrote.
		return info, nil, fmt.Errorf("store: unsupported segment version %d (have %d)", v, segVersion)
	}
	var (
		arts     []Artifact
		frames   uint32
		haveMeta bool
		off      = len(segMagic) + 4
	)
	for {
		if off == len(buf) {
			return info, nil, corruptf("missing footer (clean EOF after %d frames)", frames)
		}
		footerStart := off
		fr, err := decodeFrame(buf, off)
		if err != nil {
			return info, nil, err
		}
		off = fr.next
		switch fr.kind {
		case frameMeta:
			if haveMeta {
				return info, nil, corruptf("duplicate metadata frame")
			}
			if err := json.Unmarshal(fr.body, &info.Meta); err != nil {
				return info, nil, corruptf("metadata frame: %v", err)
			}
			haveMeta = true
			frames++
		case frameArtifact:
			if !haveMeta {
				return info, nil, corruptf("artifact frame before metadata frame")
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
				return info, nil, corruptf("footer body is %d bytes, want 8", len(fr.body))
			}
			wantFrames := binary.LittleEndian.Uint32(fr.body)
			if wantFrames != frames {
				return info, nil, corruptf("footer frame count %d, read %d", wantFrames, frames)
			}
			wantCRC := binary.LittleEndian.Uint32(fr.body[4:])
			if got := crc32.ChecksumIEEE(buf[:footerStart]); got != wantCRC {
				return info, nil, corruptf("segment checksum mismatch (got %08x, want %08x)", got, wantCRC)
			}
			if off != len(buf) {
				return info, nil, corruptf("%d trailing bytes after footer", len(buf)-off)
			}
			if !haveMeta {
				return info, nil, corruptf("no metadata frame")
			}
			info.Bytes = int64(len(buf))
			info.CRC32 = crc32.Update(wantCRC, crc32.IEEETable, buf[footerStart:])
			return info, arts, nil
		default:
			return info, nil, corruptf("unknown frame kind %d at offset %d", fr.kind, footerStart)
		}
	}
}

// readSegment loads and verifies the segment file at path.
func readSegment(path string, loadBodies bool) (GenInfo, []Artifact, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return GenInfo{}, nil, fmt.Errorf("store: read segment: %w", err)
	}
	return decodeSegment(buf, loadBodies)
}

// writeFileAtomic writes a file at path via a temp file in the same
// directory: write fills the temp file, which is then fsynced, renamed
// into place, and the directory fsynced so the rename itself is
// durable.
func writeFileAtomic(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".*.tmp")
	if err != nil {
		return fmt.Errorf("store: create temp: %w", err)
	}
	tmpName := tmp.Name()
	cleanup := func() { os.Remove(tmpName) }
	if err := write(tmp); err != nil {
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

// writeBytes is a writeFileAtomic filler for a file already in memory.
func writeBytes(data []byte) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	}
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
