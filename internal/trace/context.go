package trace

import "context"

// ctxKey keys the trace context inside a context.Context.
type ctxKey struct{}

// NewContext returns ctx carrying tc: the in-process propagation rule
// (across simnet hops the context rides message fields instead).
func NewContext(ctx context.Context, tc Ctx) context.Context {
	if !tc.Valid() {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, tc)
}

// FromContext extracts the trace context (zero Ctx when absent).
func FromContext(ctx context.Context) Ctx {
	if ctx == nil {
		return Ctx{}
	}
	tc, _ := ctx.Value(ctxKey{}).(Ctx)
	return tc
}

// Carrier is implemented by simnet messages that carry a trace context
// across a network hop. WithTraceCtx returns the message with the
// context replaced (a pointer message may replace it in place and
// return itself), letting the network nest the receiving element's
// spans under its per-hop call span.
type Carrier interface {
	TraceCtx() Ctx
	WithTraceCtx(Ctx) any
}
