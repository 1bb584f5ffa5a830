// Package ldap implements the subset of LDAPv3 (RFC 4511) the UDR's
// northbound interface needs (§1: UDC mandates an LDAP-based
// interface to read/write subscriber data): Bind, Unbind, Search
// (equality/present/and/or filters), Add, Modify, Delete, Compare and
// Extended operations, the latter carrying the transaction grouping
// the provisioning system relies on (§2.4).
//
// Wire format is real BER (see internal/ber), so the server
// interoperates with the repository's client over any net.Conn: TCP
// in cmd/udrd, in-memory pipes in tests.
package ldap

import (
	"errors"
	"fmt"
)

// Application protocol-op tags (RFC 4511 §4.1.1).
const (
	appBindRequest      = 0
	appBindResponse     = 1
	appUnbindRequest    = 2
	appSearchRequest    = 3
	appSearchEntry      = 4
	appSearchDone       = 5
	appModifyRequest    = 6
	appModifyResponse   = 7
	appAddRequest       = 8
	appAddResponse      = 9
	appDelRequest       = 10
	appDelResponse      = 11
	appCompareRequest   = 14
	appCompareResponse  = 15
	appExtendedRequest  = 23
	appExtendedResponse = 24
)

// ResultCode is an LDAP result code (RFC 4511 §4.1.9).
type ResultCode int

// Result codes used by the UDR.
const (
	ResultSuccess            ResultCode = 0
	ResultOperationsError    ResultCode = 1
	ResultProtocolError      ResultCode = 2
	ResultTimeLimitExceeded  ResultCode = 3
	ResultCompareFalse       ResultCode = 5
	ResultCompareTrue        ResultCode = 6
	ResultNoSuchObject       ResultCode = 32
	ResultInvalidCredentials ResultCode = 49
	ResultBusy               ResultCode = 51
	ResultUnavailable        ResultCode = 52
	ResultUnwillingToPerform ResultCode = 53
	ResultEntryAlreadyExists ResultCode = 68
	ResultOther              ResultCode = 80
)

// String returns the RFC name of the code.
func (rc ResultCode) String() string {
	switch rc {
	case ResultSuccess:
		return "success"
	case ResultOperationsError:
		return "operationsError"
	case ResultProtocolError:
		return "protocolError"
	case ResultTimeLimitExceeded:
		return "timeLimitExceeded"
	case ResultCompareFalse:
		return "compareFalse"
	case ResultCompareTrue:
		return "compareTrue"
	case ResultNoSuchObject:
		return "noSuchObject"
	case ResultInvalidCredentials:
		return "invalidCredentials"
	case ResultBusy:
		return "busy"
	case ResultUnavailable:
		return "unavailable"
	case ResultUnwillingToPerform:
		return "unwillingToPerform"
	case ResultEntryAlreadyExists:
		return "entryAlreadyExists"
	case ResultOther:
		return "other"
	}
	return fmt.Sprintf("resultCode(%d)", int(rc))
}

// Result is an LDAPResult.
type Result struct {
	Code      ResultCode
	MatchedDN string
	Message   string
}

// Search scopes (RFC 4511 §4.5.1.2).
const (
	ScopeBaseObject   = 0
	ScopeSingleLevel  = 1
	ScopeWholeSubtree = 2
)

// FilterKind enumerates supported filter node types.
type FilterKind int

// Supported filters.
const (
	FilterAnd FilterKind = iota
	FilterOr
	FilterNot
	FilterEquality
	FilterPresent
)

// Filter is a search filter tree.
type Filter struct {
	Kind     FilterKind
	Children []Filter // And, Or, Not(1)
	Attr     string   // Equality, Present
	Value    string   // Equality
}

// Eq builds an equality filter.
func Eq(attr, value string) Filter {
	return Filter{Kind: FilterEquality, Attr: attr, Value: value}
}

// Present builds a presence filter.
func Present(attr string) Filter { return Filter{Kind: FilterPresent, Attr: attr} }

// And combines filters conjunctively.
func And(fs ...Filter) Filter { return Filter{Kind: FilterAnd, Children: fs} }

// Or combines filters disjunctively.
func Or(fs ...Filter) Filter { return Filter{Kind: FilterOr, Children: fs} }

// Matches evaluates the filter against an attribute map.
func (f Filter) Matches(attrs map[string][]string) bool {
	switch f.Kind {
	case FilterAnd:
		for _, c := range f.Children {
			if !c.Matches(attrs) {
				return false
			}
		}
		return true
	case FilterOr:
		for _, c := range f.Children {
			if c.Matches(attrs) {
				return true
			}
		}
		return false
	case FilterNot:
		return len(f.Children) == 1 && !f.Children[0].Matches(attrs)
	case FilterEquality:
		for _, v := range attrs[f.Attr] {
			if v == f.Value {
				return true
			}
		}
		return false
	case FilterPresent:
		return len(attrs[f.Attr]) > 0
	}
	return false
}

// String renders the filter in RFC 4515 text form.
func (f Filter) String() string {
	switch f.Kind {
	case FilterAnd, FilterOr, FilterNot:
		op := map[FilterKind]string{FilterAnd: "&", FilterOr: "|", FilterNot: "!"}[f.Kind]
		s := "(" + op
		for _, c := range f.Children {
			s += c.String()
		}
		return s + ")"
	case FilterEquality:
		return "(" + f.Attr + "=" + f.Value + ")"
	case FilterPresent:
		return "(" + f.Attr + "=*)"
	}
	return "(?)"
}

// Message op payloads.

// BindRequest authenticates a connection (simple bind only).
type BindRequest struct {
	Version  int64
	DN       string
	Password string
}

// BindResponse answers a bind.
type BindResponse struct{ Result }

// UnbindRequest terminates a connection.
type UnbindRequest struct{}

// SearchRequest reads entries.
type SearchRequest struct {
	BaseDN     string
	Scope      int64
	Deref      int64
	SizeLimit  int64
	TimeLimit  int64
	TypesOnly  bool
	Filter     Filter
	Attributes []string
}

// SearchEntry is one result entry.
type SearchEntry struct {
	DN    string
	Attrs map[string][]string
}

// SearchDone ends a search result stream.
type SearchDone struct{ Result }

// ChangeOp enumerates modify change types.
type ChangeOp int64

// Modify change types (RFC 4511 §4.6).
const (
	ChangeAdd     ChangeOp = 0
	ChangeDelete  ChangeOp = 1
	ChangeReplace ChangeOp = 2
)

// Change is one attribute change in a ModifyRequest.
type Change struct {
	Op   ChangeOp
	Attr string
	Vals []string
}

// ModifyRequest mutates an entry's attributes.
type ModifyRequest struct {
	DN      string
	Changes []Change
}

// ModifyResponse answers a modify.
type ModifyResponse struct{ Result }

// AddRequest creates an entry.
type AddRequest struct {
	DN    string
	Attrs map[string][]string
}

// AddResponse answers an add.
type AddResponse struct{ Result }

// DelRequest deletes an entry.
type DelRequest struct{ DN string }

// DelResponse answers a delete.
type DelResponse struct{ Result }

// CompareRequest tests an attribute value.
type CompareRequest struct {
	DN    string
	Attr  string
	Value string
}

// CompareResponse answers a compare.
type CompareResponse struct{ Result }

// ExtendedRequest carries an extended operation; the UDR uses it for
// transaction grouping.
type ExtendedRequest struct {
	Name  string
	Value []byte
}

// ExtendedResponse answers an extended request.
type ExtendedResponse struct {
	Result
	Name  string
	Value []byte
}

// Extended operation OIDs for the UDR's transaction grouping
// (modelled on RFC 5805's shape with simplified semantics: writes
// between begin and commit execute as one storage-element
// transaction) and for OaM.
const (
	OIDTxnBegin  = "1.3.6.1.4.1.193.99.1"  // begin transaction
	OIDTxnCommit = "1.3.6.1.4.1.193.99.2"  // commit buffered writes
	OIDTxnAbort  = "1.3.6.1.4.1.193.99.3"  // discard buffered writes
	OIDStatus    = "1.3.6.1.4.1.193.99.10" // OaM: topology status dump
	OIDRepair    = "1.3.6.1.4.1.193.99.11" // OaM: anti-entropy repair round
	OIDMove      = "1.3.6.1.4.1.193.99.12" // OaM: live partition migration
	OIDRebalance = "1.3.6.1.4.1.193.99.13" // OaM: elastic rebalancing pass
	OIDTrace     = "1.3.6.1.4.1.193.99.14" // OaM: request-trace listing / span tree
)

// Message is one LDAPMessage envelope.
type Message struct {
	ID int64
	Op any // one of the payload types above
}

// ErrDecode wraps malformed-PDU errors.
var ErrDecode = errors.New("ldap: malformed message")

func decodeErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrDecode, fmt.Sprintf(format, args...))
}
