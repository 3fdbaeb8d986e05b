// Package store is a durable, append-only, versioned snapshot store for
// the serving layer: each fully built serving snapshot is persisted as
// one immutable segment file, indexed by a monotonically increasing
// generation ID, so a daemon can warm-start from disk instead of paying
// a full study rebuild before its first request, keep a bounded history
// of past generations for time-travel queries, and survive crashes
// without ever serving a torn artifact.
//
// # Segment format (version 1)
//
// A segment is a single file named gen-<20-digit id>.seg holding one
// generation. All integers are little-endian; every checksum is CRC-32
// (IEEE).
//
//	segment := header frame* footer
//	header  := magic "IPV4SEG1" (8 bytes) | version uint32 (= 1)
//	frame   := kind uint8
//	           | keyLen uint16  | key   (UTF-8)
//	           | ctypeLen uint16| ctype (content type)
//	           | etagLen uint16 | etag
//	           | bodyLen uint32 | body
//	           | crc uint32     (over kind..body)
//	footer  := frame with kind=0xFF, empty key/ctype/etag, whose 8-byte
//	           body is frameCount uint32 | segCRC uint32, where segCRC
//	           covers every byte of the file before the footer frame
//
// Frame kinds: 1 = generation metadata (JSON-encoded Meta), 2 = one
// artifact body (key + content type + ETag + bytes). The first frame is
// always the metadata frame; artifact frames follow in the writer's
// order, which readers preserve.
//
// # Crash consistency
//
// Segments are written to a temporary file in the store directory,
// fsynced, atomically renamed into place, and the directory fsynced — a
// crash mid-write leaves a *.tmp file (removed at the next Open), never
// a half-visible segment. The manifest (manifest.json) is an advisory
// index rewritten the same way after every append or compaction; the
// segment files are the ground truth and a missing or corrupt manifest
// is rebuilt from a directory scan.
//
// # Recovery
//
// Open scans every gen-*.seg file and verifies it end to end: magic,
// version, per-frame CRCs, and the footer's whole-segment CRC. A
// segment that fails any check — a truncated tail from a torn write, a
// bit flip, trailing garbage — is quarantined (renamed to *.corrupt,
// preserved for forensics) and counted in Stats().TruncatedTails; the
// store then opens successfully with the newest intact generation as
// Latest. Generation IDs are never reused, even after quarantine or
// compaction, so a pinned reader can never observe two different
// payloads under one ID.
//
// # Zero-copy reads
//
// Because sealed segments are immutable, the store keeps a frame-offset
// index (byte offset and length of every artifact body inside its
// segment file, rebuilt from the verified scan, never trusted from the
// manifest). OpenArtifact returns a file-backed io.ReadSeeker over
// exactly those bytes, so the serving layer can hand an artifact body
// to http.ServeContent (Range requests, conditional gets), and through
// ArtifactReader.SectionFile give the segment file itself to sendfile:
// past the first 512 bytes, which net/http copies to start the
// response, the body never passes through a user-space buffer. Each
// call opens its own file descriptor: a generation compacted or deleted
// mid-flight surfaces as an I/O error on open (never torn bytes), which
// callers treat as the signal to fall back to an in-memory copy.
//
// The store is safe for concurrent use. Append and CompactTo serialize
// behind a write lock; Load, Latest, Generations, Stats and
// OpenArtifact take a read lock, so readers never block each other.
package store
