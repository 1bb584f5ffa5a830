package ldap

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"repro/internal/ber"
)

// WriteKind enumerates the write operations a backend batch can hold.
type WriteKind int

// Write kinds.
const (
	WriteAdd WriteKind = iota
	WriteModify
	WriteDelete
)

// WriteOp is one write inside a backend batch. A standalone LDAP
// Add/Modify/Delete arrives as a single-op batch; writes grouped
// between txn-begin and txn-commit extended operations arrive
// together, to be executed as one storage-element transaction —
// the provisioning grouping of §2.4.
type WriteOp struct {
	Kind    WriteKind
	DN      string
	Attrs   map[string][]string // WriteAdd
	Changes []Change            // WriteModify
}

// Backend is the directory implementation behind a Server. The UDR
// point of access implements it over the distributed core; tests
// implement it over a plain map.
//
// Every string in a request is cut from one copy of the request
// message (see Decode): a Backend that keeps a string past the call
// clones it, or it keeps the whole message alive.
type Backend interface {
	// Bind authenticates a connection.
	Bind(dn, password string) Result
	// Search evaluates a search request.
	Search(req *SearchRequest) ([]SearchEntry, Result)
	// Compare tests an attribute value.
	Compare(dn, attr, value string) Result
	// Write executes a batch of writes as one transaction.
	Write(ops []WriteOp) Result
}

// ExtendedBackend is an optional Backend extension for custom
// extended operations beyond the built-in transaction grouping (e.g.
// the OaM status dump).
type ExtendedBackend interface {
	// Extended handles one extended operation and returns the result
	// plus an optional response value.
	Extended(name string, value []byte) (Result, []byte)
}

// Server serves the LDAP subset over any net.Listener or individual
// net.Conn values.
type Server struct {
	backend Backend

	mu     sync.Mutex
	closed bool
	lns    []net.Listener
}

// NewServer returns a server over the given backend.
func NewServer(b Backend) *Server { return &Server{backend: b} }

// Serve accepts connections until the listener closes.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	s.lns = append(s.lns, l)
	s.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		go func() { _ = s.ServeConn(conn) }()
	}
}

// Close stops all listeners.
func (s *Server) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	for _, l := range s.lns {
		l.Close()
	}
}

// conn is one served connection: its buffered reader, the replies
// encoded but not yet written, and its transaction buffering.
type conn struct {
	s     *Server
	nc    net.Conn
	br    *bufio.Reader
	wbuf  []byte
	inTxn bool
	txn   []WriteOp
}

// ServeConn processes one connection until unbind, EOF or a protocol
// error. Reads go through a per-connection bufio.Reader (one kernel
// read per buffered chunk instead of several per BER header) and
// replies are encoded straight into a reused per-connection write
// buffer. While the reader already holds the whole next request, the
// replies wait in the buffer: a burst of pipelined requests is
// answered with one Write, and a lone request is answered before the
// read that waits for the next one.
func (s *Server) ServeConn(nc net.Conn) error {
	defer nc.Close()
	c := &conn{s: s, nc: nc, br: bufio.NewReaderSize(nc, 4096)}
	err := c.serve()
	if werr := c.flush(); err == nil {
		err = werr
	}
	return err
}

func (c *conn) serve() error {
	for {
		if !c.requestBuffered() || len(c.wbuf) >= maxRetainedWriteBuf {
			if err := c.flush(); err != nil {
				return err
			}
		}
		raw, err := ReadMessage(c.br)
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		id, op, err := decodeMessage(raw)
		if err != nil {
			return err
		}
		if _, ok := op.(*UnbindRequest); ok {
			return nil
		}
		if err := c.dispatch(id, op); err != nil {
			return err
		}
	}
}

// requestBuffered reports whether the reader holds a whole request,
// so reading it cannot block.
func (c *conn) requestBuffered() bool {
	buf, _ := c.br.Peek(c.br.Buffered())
	n, err := ber.ElementSize(buf)
	return err == nil && n <= len(buf)
}

// flush writes the pending replies.
func (c *conn) flush() error {
	if len(c.wbuf) == 0 {
		return nil
	}
	_, err := c.nc.Write(c.wbuf)
	c.wbuf = c.wbuf[:0]
	// Don't let one large search burst pin its peak buffer for the
	// connection's remaining lifetime.
	if cap(c.wbuf) > maxRetainedWriteBuf {
		c.wbuf = nil
	}
	return err
}

// maxRetainedWriteBuf caps the reply buffer: replies are written once
// this much is pending, and a larger buffer is released to the GC.
const maxRetainedWriteBuf = 64 << 10

// dispatch executes one request and encodes its replies.
func (c *conn) dispatch(id int64, op any) error {
	var err error
	reply := func(op any) {
		if err == nil {
			c.wbuf, err = appendMessage(c.wbuf, id, op)
		}
	}
	b := c.s.backend
	switch op := op.(type) {
	case *BindRequest:
		reply(&BindResponse{b.Bind(op.DN, op.Password)})
	case *SearchRequest:
		entries, res := b.Search(op)
		for i := range entries {
			reply(&entries[i])
		}
		reply(&SearchDone{res})
	case *CompareRequest:
		reply(&CompareResponse{b.Compare(op.DN, op.Attr, op.Value)})
	case *AddRequest:
		reply(&AddResponse{c.write(WriteOp{Kind: WriteAdd, DN: op.DN, Attrs: op.Attrs})})
	case *ModifyRequest:
		reply(&ModifyResponse{c.write(WriteOp{Kind: WriteModify, DN: op.DN, Changes: op.Changes})})
	case *DelRequest:
		reply(&DelResponse{c.write(WriteOp{Kind: WriteDelete, DN: op.DN})})
	case *ExtendedRequest:
		reply(c.extended(op))
	default:
		reply(&ExtendedResponse{
			Result: Result{Code: ResultProtocolError, Message: fmt.Sprintf("unsupported op %T", op)},
		})
	}
	return err
}

// write executes w, or stages it inside an open transaction.
func (c *conn) write(w WriteOp) Result {
	if c.inTxn {
		c.txn = append(c.txn, w)
		return Result{Code: ResultSuccess, Message: "staged"}
	}
	return c.s.backend.Write([]WriteOp{w})
}

func (c *conn) extended(op *ExtendedRequest) *ExtendedResponse {
	switch op.Name {
	case OIDTxnBegin:
		if c.inTxn {
			return &ExtendedResponse{Result: Result{Code: ResultOperationsError, Message: "transaction already open"}, Name: op.Name}
		}
		c.inTxn = true
		c.txn = nil
		return &ExtendedResponse{Result: Result{Code: ResultSuccess}, Name: op.Name}
	case OIDTxnCommit:
		if !c.inTxn {
			return &ExtendedResponse{Result: Result{Code: ResultOperationsError, Message: "no open transaction"}, Name: op.Name}
		}
		ops := c.txn
		c.inTxn = false
		c.txn = nil
		res := Result{Code: ResultSuccess}
		if len(ops) > 0 {
			res = c.s.backend.Write(ops)
		}
		return &ExtendedResponse{Result: res, Name: op.Name}
	case OIDTxnAbort:
		c.inTxn = false
		c.txn = nil
		return &ExtendedResponse{Result: Result{Code: ResultSuccess}, Name: op.Name}
	default:
		if eb, ok := c.s.backend.(ExtendedBackend); ok {
			res, value := eb.Extended(op.Name, op.Value)
			return &ExtendedResponse{Result: res, Name: op.Name, Value: value}
		}
		return &ExtendedResponse{Result: Result{Code: ResultProtocolError, Message: "unknown extended op " + op.Name}, Name: op.Name}
	}
}
