package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"sync/atomic"
	"time"

	"ipv4market/internal/temporal"
)

// eventRows is the rendered form of one temporal index's event stream,
// the rows GET /v1/asof/diff concatenates. Row i is ",\n    " followed by
// appendIndent(json.Marshal(asofEventView of event i), "    "): the
// separator and array-element encoding at the depth it appears inside the
// diff document, exactly the bytes the one JSON encoder writes there. A
// diff response is then a header, the contiguous rows of its window (less
// the first row's comma) and a footer, with no per-request marshalling.
//
// Rows are rendered in blocks of eventRowBlock consecutive events, the
// first time a diff needs one, and kept for the life of the generation
// (the snapshot, or the pinned generation, that owns the index). The
// whole log is never rendered at once: that would land the cost of
// every row on the first diff after each swap. Blocks are published
// through atomic pointers; two requests rendering the same cold block
// both render it, the first to publish wins and the other adopts its
// copy, so every reader sees one immutable block.
//
// Byte-exactness contract: diff must produce exactly the body and ETag
// of the row-at-a-time reference, newArtifact over the whole diff
// document, so diffs served before and after this table existed agree.
// The reference lives beside TestAsofDiffRowsMatchView, which pins the
// contract (FuzzAsofDiffWindow explores the windows).
type eventRows struct {
	ix     *temporal.Index
	blocks []atomic.Pointer[rowBlock]
}

// eventRowBlock is how many consecutive events one block renders. A
// window renders its edge blocks whole, so smaller blocks waste less on
// a cold diff; 32 rows are about 8 KB.
const eventRowBlock = 32

// rowBytes sizes the buffer a block's rows are encoded into, per row: a
// rendered row, separator included, averages 255 bytes at DefaultConfig
// and its longest block averages 289, so one buffer nearly always holds
// the block. The rows are then kept in an exact-size copy.
const rowBytes = 320

// rowBlock is one block's rendered rows, back to back in buf: row j of
// the block is buf[off[j]:off[j+1]].
type rowBlock struct {
	buf []byte
	off []int
}

// newEventRows returns the (still empty) row table of ix.
func newEventRows(ix *temporal.Index) *eventRows {
	n := (ix.EventCount() + eventRowBlock - 1) / eventRowBlock
	return &eventRows{ix: ix, blocks: make([]atomic.Pointer[rowBlock], n)}
}

// block returns block b, rendering it on first use.
func (t *eventRows) block(b int) (*rowBlock, error) {
	if rb := t.blocks[b].Load(); rb != nil {
		return rb, nil
	}
	rb, err := t.render(b)
	if err != nil {
		return nil, err
	}
	if !t.blocks[b].CompareAndSwap(nil, rb) {
		rb = t.blocks[b].Load()
	}
	return rb, nil
}

// render encodes the events of block b. A json.Encoder writes exactly
// json.Marshal's bytes plus a newline; encoding every row of the block
// through one encoder and one view value spares the copy Marshal returns
// and the boxing of each view, so a row costs little beyond its prefix
// strings. The rows are kept in an exact-size copy.
func (t *eventRows) render(b int) (*rowBlock, error) {
	lo := b * eventRowBlock
	hi := min(lo+eventRowBlock, t.ix.EventCount())
	var row bytes.Buffer
	enc := json.NewEncoder(&row)
	ev := new(asofEventView)
	buf := make([]byte, 0, rowBytes*(hi-lo))
	off := make([]int, 1, hi-lo+1)
	// Events come in date order (UTC midnights) and many share a day:
	// render each distinct date once.
	var day time.Time
	var dayStr string
	for i := lo; i < hi; i++ {
		e := t.ix.Event(i)
		if dayStr == "" || !e.Date.Equal(day) {
			day, dayStr = e.Date, fmtDate(e.Date)
		}
		*ev = asofEventView{Date: dayStr, Kind: string(e.Kind), Prefix: e.Prefix.String()}
		switch e.Kind {
		case temporal.EventTransfer:
			ev.From, ev.To = e.From, e.To
			ev.FromRIR, ev.ToRIR = e.FromRIR.String(), e.ToRIR.String()
			ev.Type = e.Type
			ev.PricePerAddr = e.PricePerAddr
		default:
			ev.Parent = e.Parent.String()
			ev.FromAS, ev.ToAS = e.FromAS, e.ToAS
		}
		row.Reset()
		if err := enc.Encode(ev); err != nil {
			return nil, fmt.Errorf("serve: event row %d: %w", i, err)
		}
		buf = appendIndent(append(buf, ",\n    "...), bytes.TrimSuffix(row.Bytes(), []byte("\n")), "    ")
		off = append(off, len(buf))
	}
	return &rowBlock{buf: bytes.Clone(buf), off: off}, nil
}

// diff renders the GET /v1/asof/diff document for the window (from, to]
// of generation gen: the fields json.MarshalIndent writes for the diff
// view, two-space indented, with the window's rows as the events array
// and the trailing newline of every JSON body. The body is written into
// one buffer of its exact size and hashed once.
func (t *eventRows) diff(gen uint64, from, to time.Time) (*artifact, error) {
	lo, hi := t.ix.EventRange(from, to)

	var hdr [128]byte
	head := append(hdr[:0], "{\n  \"from\": \""...)
	head = from.AppendFormat(head, "2006-01-02")
	head = append(head, "\",\n  \"to\": \""...)
	head = to.AppendFormat(head, "2006-01-02")
	head = append(head, "\",\n"...)
	if gen != 0 {
		head = strconv.AppendUint(append(head, "  \"gen\": "...), gen, 10)
		head = append(head, ",\n"...)
	}
	head = strconv.AppendInt(append(head, "  \"count\": "...), int64(hi-lo), 10)
	head = append(head, ",\n  \"events\": ["...)
	foot := "]\n}\n"
	// Blocks [firstBlock, endBlock) hold the window's rows.
	firstBlock, endBlock := lo/eventRowBlock, lo/eventRowBlock
	size := len(head)
	if hi > lo {
		foot = "\n  ]\n}\n"
		endBlock = (hi-1)/eventRowBlock + 1
		size-- // the first row's comma
	}
	size += len(foot)

	// First pass: render the window's cold blocks and size the body.
	for b := firstBlock; b < endBlock; b++ {
		rb, err := t.block(b)
		if err != nil {
			return nil, err
		}
		size += len(rb.rows(b, lo, hi))
	}

	body := append(make([]byte, 0, size), head...)
	for b := firstBlock; b < endBlock; b++ {
		rows := t.blocks[b].Load().rows(b, lo, hi)
		if b == firstBlock {
			rows = rows[1:] // the first row of the array has no comma
		}
		body = append(body, rows...)
	}
	body = append(body, foot...)
	return &artifact{json: body, jsonETag: etagOf(body)}, nil
}

// rows returns the bytes of the rows of block b, the block's own number,
// that fall inside the event range [lo, hi).
func (rb *rowBlock) rows(b, lo, hi int) []byte {
	start := b * eventRowBlock
	first, last := max(lo, start)-start, min(hi, start+eventRowBlock)-start
	return rb.buf[rb.off[first]:rb.off[last]]
}
