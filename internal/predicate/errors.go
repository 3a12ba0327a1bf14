package predicate

import (
	"fmt"

	"oostream/internal/event"
	"oostream/internal/query"
)

// evalError is the error of a failed evaluation: the status the program
// stopped with and what its message quotes. Most callers only count it
// (errors.Is through Unwrap at most), so the text is rendered by Error and
// not before.
type evalError struct {
	st status
	// op is the binary operator that failed, where one did.
	op query.BinaryOp
	// lk and rk are the kinds of its operands (lk alone for a unary
	// operator, a connective and stNotBool).
	lk, rk event.Kind
	// ref is the attribute reference that failed to load (slot and typ
	// are its slot and the type of the event there), for stTruthType the
	// connective, for stNotBool the source of the predicate.
	ref  string
	typ  string
	slot int
}

// Unwrap returns the sentinel callers test with errors.Is.
func (e *evalError) Unwrap() error {
	switch e.st {
	case stUnbound:
		return ErrUnboundSlot
	case stMissing:
		return ErrMissingAttr
	case stDivZero:
		return ErrDivZero
	case stIncomparable:
		return event.ErrIncomparable
	default:
		return ErrType
	}
}

func (e *evalError) Error() string {
	var what string
	switch e.st {
	case stUnbound:
		what = fmt.Sprintf("%s: slot %d", e.ref, e.slot)
	case stMissing:
		what = fmt.Sprintf("%s on %s", e.ref, e.typ)
	case stArithType:
		what = fmt.Sprintf("%s on %s and %s", e.op, e.lk, e.rk)
	case stModType:
		what = fmt.Sprintf("%% needs integers, got %s and %s", e.lk, e.rk)
	case stDivZero:
		what = e.op.String()
	case stNegType:
		what = fmt.Sprintf("negation on %s", e.lk)
	case stTruthType:
		what = fmt.Sprintf("%s on %s", e.ref, e.lk)
	case stIncomparable:
		// The text event.Value.Compare gives the same pair.
		if e.lk != e.rk {
			what = fmt.Sprintf("%s: compare %s with %s", e.op, e.lk, e.rk)
		} else {
			what = fmt.Sprintf("%s: compare %s values", e.op, e.lk)
		}
	case stNotBool:
		what = fmt.Sprintf("predicate %s yielded %s, want bool", e.ref, e.lk)
	}
	return what + ": " + e.Unwrap().Error()
}
