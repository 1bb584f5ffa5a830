// Package subscriber defines the telecom subscriber data model the
// UDR stores: the profile a HLR/HSS front-end needs to run network
// procedures (authentication, location management, call handling) and
// the identities (IMSI, MSISDN, IMPU, IMPI) under which the data must
// be indexed (§3.3.1: "one index per subscriber identity").
package subscriber

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/store"
)

// IdentityType enumerates the subscriber identity spaces the UDR
// indexes.
type IdentityType int

// Identity types named in the paper (§2.4, §3.5), plus the canonical
// subscription ID itself (DN-based LDAP access needs an index too).
const (
	// IMSI is the International Mobile Subscriber Identity (SIM).
	IMSI IdentityType = iota
	// MSISDN is the subscriber's phone number.
	MSISDN
	// IMPU is an IMS public user identity (SIP URI); a subscription
	// may have several.
	IMPU
	// IMPI is the IMS private user identity used for authentication.
	IMPI
	// UID is the canonical subscription identifier (the row key and
	// the uid= component of the entry's DN).
	UID
)

// String returns the 3GPP name of the identity type.
func (t IdentityType) String() string {
	switch t {
	case IMSI:
		return "IMSI"
	case MSISDN:
		return "MSISDN"
	case IMPU:
		return "IMPU"
	case IMPI:
		return "IMPI"
	case UID:
		return "UID"
	}
	return fmt.Sprintf("IdentityType(%d)", int(t))
}

// Identity is one (type, value) subscriber identity.
type Identity struct {
	Type  IdentityType
	Value string
}

// String renders "TYPE:value", the key format used by location maps.
func (id Identity) String() string { return id.Type.String() + ":" + id.Value }

// Services is the per-subscription service profile: the data network
// procedures consult and provisioning mutates. The barring flags
// model §3.2's pay-call barring example.
type Services struct {
	// BarOutgoing blocks all mobile-originated calls.
	BarOutgoing bool
	// BarPremium blocks calls to premium-rate ("hi-toll") numbers.
	BarPremium bool
	// BarRoaming blocks service while roaming outside the home
	// region.
	BarRoaming bool
	// ForwardUnconditional, when non-empty, forwards all incoming
	// calls to the given MSISDN.
	ForwardUnconditional string
	// SMSEnabled allows short-message service.
	SMSEnabled bool
	// IMSEnabled allows IMS (VoLTE/fixed) registration.
	IMSEnabled bool
}

// Location is the mobility state written by location-management
// procedures.
type Location struct {
	// ServingNode is the MME/VLR/S-CSCF currently serving the user.
	ServingNode string
	// Area is the tracking/location area code.
	Area string
	// Roaming reports whether the user is outside the home region.
	Roaming bool
	// UpdatedAtMicro is the UnixMicro time of the last update.
	UpdatedAtMicro int64
}

// Profile is the full subscriber record stored in the UDR.
type Profile struct {
	// ID is the canonical subscription identifier (the UDR row key).
	ID string
	// IMSIVal and MSISDNVal are the mobile identities.
	IMSIVal   string
	MSISDNVal string
	// IMPIVal and IMPUVals are the IMS identities.
	IMPIVal  string
	IMPUVals []string
	// HomeRegion is the region the subscription belongs to; the
	// locator's selective placement pins the data near it (§3.5).
	HomeRegion string
	// AuthKeyHex is the hex-encoded permanent key K used to derive
	// authentication vectors.
	AuthKeyHex string
	// SQN is the authentication sequence number; incremented by
	// every authentication procedure (a write!).
	SQN uint64
	// Active reports whether the subscription is activated.
	Active bool
	// Services and Location as above.
	Services Services
	Location Location
}

// Identities returns every identity under which this profile must be
// locatable.
func (p *Profile) Identities() []Identity {
	ids := make([]Identity, 0, 4+len(p.IMPUVals))
	if p.ID != "" {
		ids = append(ids, Identity{UID, p.ID})
	}
	if p.IMSIVal != "" {
		ids = append(ids, Identity{IMSI, p.IMSIVal})
	}
	if p.MSISDNVal != "" {
		ids = append(ids, Identity{MSISDN, p.MSISDNVal})
	}
	if p.IMPIVal != "" {
		ids = append(ids, Identity{IMPI, p.IMPIVal})
	}
	for _, u := range p.IMPUVals {
		ids = append(ids, Identity{IMPU, u})
	}
	return ids
}

// Attribute names used in the stored entry (LDAP-style).
const (
	AttrObjectClass = "objectClass"
	AttrID          = "uid"
	AttrIMSI        = "imsi"
	AttrMSISDN      = "msisdn"
	AttrIMPI        = "impi"
	AttrIMPU        = "impu"
	AttrHomeRegion  = "homeRegion"
	AttrAuthKey     = "authKey"
	AttrSQN         = "sqn"
	AttrActive      = "active"

	AttrBarOutgoing   = "barOutgoing"
	AttrBarPremium    = "barPremium"
	AttrBarRoaming    = "barRoaming"
	AttrForwardUncond = "cfu"
	AttrSMSEnabled    = "smsEnabled"
	AttrIMSEnabled    = "imsEnabled"

	AttrServingNode = "servingNode"
	AttrArea        = "area"
	AttrRoaming     = "roaming"
	AttrLocUpdated  = "locUpdatedAt"

	// Sh transparent (repository) data, TS 29.328: an opaque blob
	// plus the version counter its optimistic-concurrency update
	// guards on. Not part of Profile — FromEntry tolerates and
	// ToEntry omits them; they ride alongside in the stored entry.
	AttrShData    = "shData"
	AttrShDataVer = "shDataVersion"
)

// ObjectClass is the objectClass value for subscriber entries.
const ObjectClass = "udrSubscription"

// IdentityAttrs lists the searchable identity attributes: the keys
// the §3.3 location stages resolve and the storage elements keep
// secondary indexes over for the §3.4 identity-search fallback.
var IdentityAttrs = []string{AttrIMSI, AttrMSISDN, AttrIMPI, AttrIMPU}

// Attr returns the entry attribute that carries identities of this
// type; empty for UID, which is the row key itself.
func (t IdentityType) Attr() string {
	switch t {
	case IMSI:
		return AttrIMSI
	case MSISDN:
		return AttrMSISDN
	case IMPI:
		return AttrIMPI
	case IMPU:
		return AttrIMPU
	}
	return ""
}

// IdentityForAttr is the inverse of Attr: the identity an
// (attribute, value) pair names, false for non-identity attributes.
func IdentityForAttr(attr, value string) (Identity, bool) {
	for t := IMSI; t < UID; t++ {
		if t.Attr() == attr {
			return Identity{Type: t, Value: value}, true
		}
	}
	return Identity{}, false
}

func boolStr(b bool) string {
	if b {
		return "TRUE"
	}
	return "FALSE"
}

func strBool(s string) bool { return s == "TRUE" }

// ToEntry converts the profile into a stored attribute entry.
func (p *Profile) ToEntry() store.Entry {
	e := store.Entry{
		AttrObjectClass: {ObjectClass},
		AttrID:          {p.ID},
		AttrActive:      {boolStr(p.Active)},
		AttrSQN:         {strconv.FormatUint(p.SQN, 10)},
	}
	set := func(attr, v string) {
		if v != "" {
			e[attr] = []string{v}
		}
	}
	set(AttrIMSI, p.IMSIVal)
	set(AttrMSISDN, p.MSISDNVal)
	set(AttrIMPI, p.IMPIVal)
	if len(p.IMPUVals) > 0 {
		e[AttrIMPU] = append([]string(nil), p.IMPUVals...)
	}
	set(AttrHomeRegion, p.HomeRegion)
	set(AttrAuthKey, p.AuthKeyHex)
	e[AttrBarOutgoing] = []string{boolStr(p.Services.BarOutgoing)}
	e[AttrBarPremium] = []string{boolStr(p.Services.BarPremium)}
	e[AttrBarRoaming] = []string{boolStr(p.Services.BarRoaming)}
	set(AttrForwardUncond, p.Services.ForwardUnconditional)
	e[AttrSMSEnabled] = []string{boolStr(p.Services.SMSEnabled)}
	e[AttrIMSEnabled] = []string{boolStr(p.Services.IMSEnabled)}
	set(AttrServingNode, p.Location.ServingNode)
	set(AttrArea, p.Location.Area)
	e[AttrRoaming] = []string{boolStr(p.Location.Roaming)}
	if p.Location.UpdatedAtMicro != 0 {
		e[AttrLocUpdated] = []string{strconv.FormatInt(p.Location.UpdatedAtMicro, 10)}
	}
	return e
}

// FromEntry reconstructs a profile from a stored entry.
func FromEntry(e store.Entry) (*Profile, error) {
	if e.First(AttrObjectClass) != ObjectClass {
		return nil, fmt.Errorf("subscriber: entry is not a %s (objectClass=%q)",
			ObjectClass, e.First(AttrObjectClass))
	}
	p := &Profile{
		ID:         e.First(AttrID),
		IMSIVal:    e.First(AttrIMSI),
		MSISDNVal:  e.First(AttrMSISDN),
		IMPIVal:    e.First(AttrIMPI),
		HomeRegion: e.First(AttrHomeRegion),
		AuthKeyHex: e.First(AttrAuthKey),
		Active:     strBool(e.First(AttrActive)),
	}
	if vs := e[AttrIMPU]; len(vs) > 0 {
		p.IMPUVals = append([]string(nil), vs...)
	}
	if s := e.First(AttrSQN); s != "" {
		n, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("subscriber: bad sqn %q: %v", s, err)
		}
		p.SQN = n
	}
	p.Services = Services{
		BarOutgoing:          strBool(e.First(AttrBarOutgoing)),
		BarPremium:           strBool(e.First(AttrBarPremium)),
		BarRoaming:           strBool(e.First(AttrBarRoaming)),
		ForwardUnconditional: e.First(AttrForwardUncond),
		SMSEnabled:           strBool(e.First(AttrSMSEnabled)),
		IMSEnabled:           strBool(e.First(AttrIMSEnabled)),
	}
	p.Location = Location{
		ServingNode: e.First(AttrServingNode),
		Area:        e.First(AttrArea),
		Roaming:     strBool(e.First(AttrRoaming)),
	}
	if s := e.First(AttrLocUpdated); s != "" {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("subscriber: bad locUpdatedAt %q: %v", s, err)
		}
		p.Location.UpdatedAtMicro = n
	}
	return p, nil
}

// DN formats the LDAP distinguished name for a subscription ID, and
// ParseDN inverts it. The northbound LDAP interface addresses entries
// by DN while the stores key rows by ID.
func DN(id string) string { return "uid=" + id + ",ou=subscribers,dc=udr" }

// BaseDN is the directory subtree holding all subscriptions.
const BaseDN = "ou=subscribers,dc=udr"

// ParseDN extracts the subscription ID from a DN produced by DN.
func ParseDN(dn string) (string, error) {
	rest, ok := strings.CutPrefix(dn, "uid=")
	if !ok {
		return "", fmt.Errorf("subscriber: DN %q does not start with uid=", dn)
	}
	id, _, ok := strings.Cut(rest, ",")
	if !ok || id == "" {
		return "", fmt.Errorf("subscriber: malformed DN %q", dn)
	}
	return id, nil
}

// Generator produces synthetic subscriber profiles with realistic
// identity shapes, used by workload generation and provisioning.
type Generator struct {
	// MCCMNC is the 5–6 digit network code prefixed to IMSIs.
	MCCMNC string
	// CC is the country code prefixed to MSISDNs.
	CC string
	// Regions are the home regions to round-robin subscriptions
	// across.
	Regions []string
}

// NewGenerator returns a generator with Spanish-network defaults
// (matching the paper's Ericsson Madrid provenance).
func NewGenerator(regions ...string) *Generator {
	if len(regions) == 0 {
		regions = []string{"region0"}
	}
	return &Generator{MCCMNC: "21401", CC: "34", Regions: regions}
}

// Profile builds the n-th synthetic subscriber.
func (g *Generator) Profile(n int) *Profile {
	id := fmt.Sprintf("sub-%08d", n)
	region := g.Regions[n%len(g.Regions)]
	msisdn := fmt.Sprintf("%s6%08d", g.CC, n)
	return &Profile{
		ID:         id,
		IMSIVal:    fmt.Sprintf("%s%09d", g.MCCMNC, n),
		MSISDNVal:  msisdn,
		IMPIVal:    fmt.Sprintf("%s@ims.mnc001.mcc214.3gppnetwork.org", id),
		IMPUVals:   []string{"sip:+" + msisdn + "@ims.example.net", "tel:+" + msisdn},
		HomeRegion: region,
		AuthKeyHex: fmt.Sprintf("%032x", n),
		Active:     true,
		Services: Services{
			SMSEnabled: true,
			IMSEnabled: n%2 == 0, // half the base is IMS-capable
		},
	}
}
