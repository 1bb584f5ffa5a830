package main

import (
	"bufio"
	"os"
	"strconv"
)

// span is one timed call recorded by the benchmark around an entry
// into a layer. Times are nanoseconds since the benchmark's epoch.
// Spans of one operation (or one ladder sample) share trace; parent
// is the id of the span that encloses it, 0 for a root.
type span struct {
	id, parent int64
	trace      int64
	name       string
	start, end int64
}

// spanBuf keeps spans in memory up to a fixed capacity, allocated up
// front so recording never allocates; spans past the capacity are
// counted and dropped.
type spanBuf struct {
	spans   []span
	dropped int64
}

func newSpanBuf(capacity int) *spanBuf { return &spanBuf{spans: make([]span, 0, capacity)} }

func (b *spanBuf) add(s span) {
	if len(b.spans) == cap(b.spans) {
		b.dropped++
		return
	}
	b.spans = append(b.spans, s)
}

// writeSpans writes the buffers as JSON lines and returns the number
// written and dropped. Stream spans get their ids here: they are
// roots, so nothing refers to them.
func writeSpans(path string, bufs []*spanBuf) (written, dropped int64, err error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, 0, err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var line []byte
	nextID := int64(1) << 40 // above every ladder span id
	for _, b := range bufs {
		dropped += b.dropped
		for _, s := range b.spans {
			if s.id == 0 {
				s.id = nextID
				nextID++
			}
			line = append(line[:0], `{"id":`...)
			line = strconv.AppendInt(line, s.id, 10)
			line = append(line, `,"parent":`...)
			line = strconv.AppendInt(line, s.parent, 10)
			line = append(line, `,"trace":`...)
			line = strconv.AppendInt(line, s.trace, 10)
			line = append(line, `,"name":"`...)
			line = append(line, s.name...)
			line = append(line, `","start":`...)
			line = strconv.AppendInt(line, s.start, 10)
			line = append(line, `,"end":`...)
			line = strconv.AppendInt(line, s.end, 10)
			line = append(line, "}\n"...)
			if _, err := w.Write(line); err != nil {
				f.Close()
				return written, dropped, err
			}
			written++
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return written, dropped, err
	}
	return written, dropped, f.Close()
}
