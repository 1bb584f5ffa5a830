package main

import (
	"bufio"
	"fmt"

	"repro/internal/ldap"
)

// pipelinedClient keeps several LDAP requests in flight on one
// connection, built on the public codec (Message.AppendTo,
// ReadMessage, Decode). Each response is matched to its request by
// messageID. One goroutine both writes and reads: requests and
// responses are far smaller than the socket buffers, so a write of at
// most `inflight` requests never waits for the reader.
type pipelinedClient struct {
	idx     int
	fx      *fixture
	stream  *opStream
	lastSeq []uint64
	conn    *countConn
	br      *bufio.Reader
	wbuf    []byte
	nextID  int64
	// slots holds the requests in flight, indexed by messageID modulo
	// the window.
	slots []pipeSlot
	err   error
}

type pipeSlot struct {
	id     int64 // 0 = free
	sub    *subRef
	target int
	seq    uint64
	write  bool
	sentAt int64
	// entryOK records that the search's single entry arrived and
	// matched; entries counts every entry received.
	entryOK bool
	entries int
}

func newPipelinedClient(idx int, fx *fixture, stream *opStream, lastSeq []uint64, conn *countConn, inflight int) *pipelinedClient {
	return &pipelinedClient{idx: idx, fx: fx, stream: stream, lastSeq: lastSeq, conn: conn,
		br: bufio.NewReaderSize(conn, 16<<10), nextID: 1, slots: make([]pipeSlot, inflight)}
}

func (c *pipelinedClient) wireBytes() int64  { return c.conn.bytes }
func (c *pipelinedClient) written() []uint64 { return c.lastSeq }
func (c *pipelinedClient) close()            { _ = c.conn.Close() }

// enqueue draws the next operation and appends its request to the
// write buffer.
func (c *pipelinedClient) enqueue() error {
	target, write := c.stream.next()
	sub := c.fx.target(target)
	id := c.nextID
	c.nextID++
	slot := &c.slots[id%int64(len(c.slots))]
	if slot.id != 0 {
		return fmt.Errorf("pipelined client: slot for message %d still holds %d", id, slot.id)
	}
	*slot = pipeSlot{id: id, sub: sub, target: target, seq: c.stream.seq, write: write}
	var op any
	if write {
		op = modifyRequest(sub.dn, areaValue(c.idx, c.stream.seq))
	} else {
		op = searchRequest(sub.msisdn)
	}
	buf, err := (&ldap.Message{ID: id, Op: op}).AppendTo(c.wbuf)
	if err != nil {
		return err
	}
	c.wbuf = buf
	return nil
}

// flush sends the buffered requests, stamping them all with the send
// time.
func (c *pipelinedClient) flush(from int64) error {
	if len(c.wbuf) == 0 {
		return nil
	}
	t := now()
	for id := from; id < c.nextID; id++ {
		c.slots[id%int64(len(c.slots))].sentAt = t
	}
	_, err := c.conn.Write(c.wbuf)
	c.wbuf = c.wbuf[:0]
	return err
}

// readOne reads one response message and, when it completes a request,
// records it. It returns whether a request completed.
func (c *pipelinedClient) readOne(rec *recorder) (bool, error) {
	raw, err := ldap.ReadMessage(c.br)
	if err != nil {
		return false, err
	}
	msg, err := ldap.Decode(raw)
	if err != nil {
		return false, err
	}
	slot := &c.slots[msg.ID%int64(len(c.slots))]
	if msg.ID <= 0 || slot.id != msg.ID {
		return false, fmt.Errorf("pipelined client: response for message %d, which is not in flight", msg.ID)
	}
	var ok bool
	switch op := msg.Op.(type) {
	case *ldap.SearchEntry:
		slot.entries++
		slot.entryOK = !slot.write && entryMatches(op, slot.sub)
		return false, nil
	case *ldap.SearchDone:
		ok = !slot.write && op.Code == ldap.ResultSuccess && slot.entries == 1 && slot.entryOK
	case *ldap.ModifyResponse:
		ok = slot.write && op.Code == ldap.ResultSuccess
	}
	class := classRead
	if slot.write {
		class = classWrite
	}
	rec.done(class, slot.sentAt, now(), ok)
	if ok && slot.write {
		c.lastSeq[slot.target] = slot.seq
	}
	slot.id = 0
	return true, nil
}

// run fills the window, then replaces each completed request with a
// new one until the phase ends, and drains what is still in flight.
// Responses already buffered are consumed before the next write, so
// their replacements leave in one segment.
func (c *pipelinedClient) run(ph phase, rec *recorder) {
	if c.err != nil {
		// The connection broke in an earlier phase: this phase fails.
		rec.attempted++
		rec.failed++
		return
	}
	sent, inflight := 0, 0
	more := func() bool {
		return (ph.maxOps == 0 || sent < ph.maxOps) && (ph.deadline == 0 || now() < ph.deadline)
	}
	fail := func(err error) {
		// A broken connection fails everything still in flight.
		c.err = err
		rec.attempted += uint64(inflight)
		rec.failed += uint64(inflight)
	}
	for {
		from := c.nextID
		for inflight < len(c.slots) && more() {
			if err := c.enqueue(); err != nil {
				fail(err)
				return
			}
			sent++
			inflight++
		}
		if err := c.flush(from); err != nil {
			fail(err)
			return
		}
		if inflight == 0 {
			return
		}
		for first := true; first || c.br.Buffered() > 0; first = false {
			completed, err := c.readOne(rec)
			if err != nil {
				fail(err)
				return
			}
			if completed {
				inflight--
			}
		}
	}
}
