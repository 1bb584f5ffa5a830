package ldap

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"sync"

	"repro/internal/ber"
)

// ReadMessage reads one complete BER-framed LDAP message from r.
func ReadMessage(r io.Reader) ([]byte, error) {
	return ber.ReadElement(r)
}

// Client is a synchronous LDAP client over any net.Conn. It is safe
// for concurrent use; requests are serialized on the connection.
type Client struct {
	mu     sync.Mutex
	conn   net.Conn
	br     *bufio.Reader
	wbuf   []byte // reused request encode buffer, guarded by mu
	nextID int64
}

// NewClient wraps an established connection.
func NewClient(conn net.Conn) *Client {
	return &Client{conn: conn, br: bufio.NewReaderSize(conn, 4096), nextID: 1}
}

// Close terminates the connection (sending an unbind first is the
// caller's choice via Unbind).
func (c *Client) Close() error { return c.conn.Close() }

// roundTrip sends op and reads the responses bearing its message ID.
// Each SearchEntry is appended to *entries when entries is non-nil
// (and dropped otherwise); the first other response is returned.
func (c *Client) roundTrip(op any, entries *[]SearchEntry) (any, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	id := c.nextID
	c.nextID++
	buf, err := appendMessage(c.wbuf[:0], id, op)
	if err != nil {
		return nil, err
	}
	c.wbuf = buf
	if _, err := c.conn.Write(buf); err != nil {
		return nil, err
	}
	for {
		raw, err := ReadMessage(c.br)
		if err != nil {
			return nil, err
		}
		respID, resp, err := decodeMessage(raw)
		if err != nil {
			return nil, err
		}
		if respID != id {
			return nil, fmt.Errorf("ldap: response ID %d for request %d", respID, id)
		}
		e, isEntry := resp.(*SearchEntry)
		if !isEntry {
			return resp, nil
		}
		if entries != nil {
			*entries = append(*entries, *e)
		}
	}
}

// Bind authenticates with a simple bind.
func (c *Client) Bind(dn, password string) (Result, error) {
	resp, err := c.roundTrip(&BindRequest{Version: 3, DN: dn, Password: password}, nil)
	if err != nil {
		return Result{}, err
	}
	r, ok := resp.(*BindResponse)
	if !ok {
		return Result{}, fmt.Errorf("ldap: unexpected bind response %T", resp)
	}
	return r.Result, nil
}

// Unbind notifies the server and closes the connection.
func (c *Client) Unbind() error {
	c.mu.Lock()
	msg := &Message{ID: c.nextID, Op: &UnbindRequest{}}
	c.nextID++
	buf, err := msg.Encode()
	if err == nil {
		_, err = c.conn.Write(buf)
	}
	c.mu.Unlock()
	cerr := c.conn.Close()
	if err != nil {
		return err
	}
	return cerr
}

// Search runs a search and returns the entries plus the final result.
func (c *Client) Search(req *SearchRequest) ([]SearchEntry, Result, error) {
	var entries []SearchEntry
	resp, err := c.roundTrip(req, &entries)
	if err != nil {
		return nil, Result{}, err
	}
	done, ok := resp.(*SearchDone)
	if !ok {
		return nil, Result{}, fmt.Errorf("ldap: unexpected search terminator %T", resp)
	}
	return entries, done.Result, nil
}

// Add creates an entry.
func (c *Client) Add(dn string, attrs map[string][]string) (Result, error) {
	resp, err := c.roundTrip(&AddRequest{DN: dn, Attrs: attrs}, nil)
	if err != nil {
		return Result{}, err
	}
	r, ok := resp.(*AddResponse)
	if !ok {
		return Result{}, fmt.Errorf("ldap: unexpected add response %T", resp)
	}
	return r.Result, nil
}

// Modify applies attribute changes to an entry.
func (c *Client) Modify(dn string, changes []Change) (Result, error) {
	resp, err := c.roundTrip(&ModifyRequest{DN: dn, Changes: changes}, nil)
	if err != nil {
		return Result{}, err
	}
	r, ok := resp.(*ModifyResponse)
	if !ok {
		return Result{}, fmt.Errorf("ldap: unexpected modify response %T", resp)
	}
	return r.Result, nil
}

// Delete removes an entry.
func (c *Client) Delete(dn string) (Result, error) {
	resp, err := c.roundTrip(&DelRequest{DN: dn}, nil)
	if err != nil {
		return Result{}, err
	}
	r, ok := resp.(*DelResponse)
	if !ok {
		return Result{}, fmt.Errorf("ldap: unexpected delete response %T", resp)
	}
	return r.Result, nil
}

// Compare tests an attribute value; the result code is
// ResultCompareTrue or ResultCompareFalse on success.
func (c *Client) Compare(dn, attr, value string) (Result, error) {
	resp, err := c.roundTrip(&CompareRequest{DN: dn, Attr: attr, Value: value}, nil)
	if err != nil {
		return Result{}, err
	}
	r, ok := resp.(*CompareResponse)
	if !ok {
		return Result{}, fmt.Errorf("ldap: unexpected compare response %T", resp)
	}
	return r.Result, nil
}

// extendedCall runs one extended operation.
func (c *Client) extendedCall(name string, value []byte) (Result, error) {
	resp, err := c.roundTrip(&ExtendedRequest{Name: name, Value: value}, nil)
	if err != nil {
		return Result{}, err
	}
	r, ok := resp.(*ExtendedResponse)
	if !ok {
		return Result{}, fmt.Errorf("ldap: unexpected extended response %T", resp)
	}
	return r.Result, nil
}

// extendedCallFull runs one extended operation and returns the
// response value as well.
func (c *Client) extendedCallFull(name string, value []byte) (Result, []byte, error) {
	resp, err := c.roundTrip(&ExtendedRequest{Name: name, Value: value}, nil)
	if err != nil {
		return Result{}, nil, err
	}
	r, ok := resp.(*ExtendedResponse)
	if !ok {
		return Result{}, nil, fmt.Errorf("ldap: unexpected extended response %T", resp)
	}
	return r.Result, r.Value, nil
}

// Status fetches the server's OaM status dump (udrd topology view).
func (c *Client) Status() (string, Result, error) {
	r, value, err := c.extendedCallFull(OIDStatus, nil)
	return string(value), r, err
}

// Repair triggers an anti-entropy repair round on every partition and
// returns the server's per-peer repair report (udrctl repair).
func (c *Client) Repair() (string, Result, error) {
	r, value, err := c.extendedCallFull(OIDRepair, nil)
	return string(value), r, err
}

// Move migrates a partition's master replica onto the target storage
// element and returns the server's migration report (udrctl move).
// The request value is "<partition> <target-element>".
func (c *Client) Move(partition, targetElement string) (string, Result, error) {
	r, value, err := c.extendedCallFull(OIDMove, []byte(partition+" "+targetElement))
	return string(value), r, err
}

// Rebalance runs one elastic rebalancing pass (plan + migrations) and
// returns the server's plan/outcome report (udrctl rebalance).
func (c *Client) Rebalance() (string, Result, error) {
	r, value, err := c.extendedCallFull(OIDRebalance, nil)
	return string(value), r, err
}

// Trace queries the server's request-trace recorder (udrctl trace).
// arg is "recent" (or empty), "slow", or a 16-hex-digit trace id;
// the response is the server-rendered text listing or span tree.
func (c *Client) Trace(arg string) (string, Result, error) {
	r, value, err := c.extendedCallFull(OIDTrace, []byte(arg))
	return string(value), r, err
}

// TxnBegin opens a write transaction on this connection: subsequent
// Add/Modify/Delete calls are staged server-side and executed
// atomically by TxnCommit.
func (c *Client) TxnBegin() (Result, error) { return c.extendedCall(OIDTxnBegin, nil) }

// TxnCommit executes the staged writes as one transaction.
func (c *Client) TxnCommit() (Result, error) { return c.extendedCall(OIDTxnCommit, nil) }

// TxnAbort discards the staged writes.
func (c *Client) TxnAbort() (Result, error) { return c.extendedCall(OIDTxnAbort, nil) }
