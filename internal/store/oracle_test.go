package store

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
)

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
// generation in memory: the byte oracle for writeSegment, which streams
// the same image. The output is deterministic for identical inputs.
func encodeSegment(meta Meta, arts []Artifact) ([]byte, error) {
	metaJSON, err := json.Marshal(meta)
	if err != nil {
		return nil, fmt.Errorf("store: encode meta: %w", err)
	}
	var buf []byte
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
