package rnknn

import "errors"

// The typed errors every DB operation can surface; match with errors.Is.
// Returned errors wrap these sentinels with the offending value.
var (
	// ErrBadGraph reports a nil or empty road network at Open.
	ErrBadGraph = errors.New("rnknn: invalid graph")
	// ErrUnknownMethod reports a method name or value outside the known
	// set.
	ErrUnknownMethod = errors.New("rnknn: unknown method")
	// ErrMethodNotEnabled reports a known method the DB was not opened
	// with (its index was never built); pass it to WithMethods at Open.
	ErrMethodNotEnabled = errors.New("rnknn: method not enabled for this DB")
	// ErrUnknownCategory reports a query against an object category that
	// was never registered.
	ErrUnknownCategory = errors.New("rnknn: unknown object category")
	// ErrBadCategory reports an invalid category name (empty).
	ErrBadCategory = errors.New("rnknn: invalid category name")
	// ErrBadVertex reports a vertex id outside [0, NumVertices).
	ErrBadVertex = errors.New("rnknn: vertex out of range")
	// ErrBadK reports a non-positive k.
	ErrBadK = errors.New("rnknn: k must be positive")
	// ErrBadRadius reports a negative range radius.
	ErrBadRadius = errors.New("rnknn: radius must be non-negative")
	// ErrRangeMethod reports a Range call naming a method with no range
	// form: range queries run on INE or the IER family (the planner's pick
	// among the enabled ones when no method is named).
	ErrRangeMethod = errors.New("rnknn: range queries run on INE or the IER family")
	// ErrBadRoute reports a Monitor call with an empty route.
	ErrBadRoute = errors.New("rnknn: route must have at least one vertex")
)
