// Package feedback defines the reputation-system data model of the paper:
// transactions, feedback tuples (t, s, c, r), and the append-only
// transaction history of a server, together with the windowing and
// issuer-grouping operations the behaviour tests are built on.
package feedback

import (
	"errors"
	"fmt"
	"time"
)

// Rating is the client's one-dimensional evaluation of a transaction. The
// paper's model is binary {positive, negative}, and Valid admits only those
// two: a History stores a rating as one good-bit (ADR 0011), so the
// multi-value extension discussed in §3.1 would need a rating column of its
// own.
type Rating int

const (
	// Negative marks a bad transaction.
	Negative Rating = iota + 1
	// Positive marks a good transaction.
	Positive
)

// String implements fmt.Stringer.
func (r Rating) String() string {
	switch r {
	case Positive:
		return "positive"
	case Negative:
		return "negative"
	default:
		return fmt.Sprintf("Rating(%d)", int(r))
	}
}

// Valid reports whether r is one of the defined ratings.
func (r Rating) Valid() bool { return r == Positive || r == Negative }

// Good reports whether the rating marks a good transaction.
func (r Rating) Good() bool { return r == Positive }

// EntityID identifies a server or client in the system.
type EntityID string

// Feedback is the statement a client issues about the quality of a server in
// a single transaction: the tuple (t, s, c, r) of §2.
type Feedback struct {
	// Time is when the transaction happened.
	Time time.Time `json:"time"`
	// Server is the service provider being rated.
	Server EntityID `json:"server"`
	// Client is the feedback issuer.
	Client EntityID `json:"client"`
	// Rating is the client's evaluation.
	Rating Rating `json:"rating"`
}

// Validation errors for feedback records.
var (
	ErrInvalidRating = errors.New("feedback: invalid rating")
	ErrEmptyEntity   = errors.New("feedback: empty entity id")
	// ErrTimeRange reports a time outside what unix nanoseconds — the form
	// every record is hashed, ordered and stored in — can represent
	// (1677-09-21 … 2262-04-11); the zero time.Time is outside it.
	ErrTimeRange = errors.New("feedback: time out of range")
)

// Validate reports whether the feedback record is well-formed: a binary
// rating, both ids present and at most maxEntityLen bytes — what every
// encoding of a record can carry — and a time unix nanoseconds hold.
func (f Feedback) Validate() error {
	if !f.Rating.Valid() {
		return fmt.Errorf("%w: %d", ErrInvalidRating, int(f.Rating))
	}
	if f.Server == "" {
		return fmt.Errorf("%w: server", ErrEmptyEntity)
	}
	if f.Client == "" {
		return fmt.Errorf("%w: client", ErrEmptyEntity)
	}
	if len(f.Server) > maxEntityLen || len(f.Client) > maxEntityLen {
		return fmt.Errorf("%w: entity id above %d bytes", ErrRecordTooLarge, maxEntityLen)
	}
	if !nanosHold(f.Time) {
		return fmt.Errorf("%w: %s", ErrTimeRange, f.Time.Format(time.RFC3339))
	}
	return nil
}

// nanosHold reports whether unix nanoseconds hold t: whether t lies in
// [-9223372037 s + 145224192 ns, 9223372036 s + 854775807 ns].
func nanosHold(t time.Time) bool {
	sec, ns := t.Unix(), t.Nanosecond()
	return sec > -9223372037 && sec < 9223372036 ||
		sec == 9223372036 && ns <= 854775807 || sec == -9223372037 && ns >= 145224192
}

// Good reports whether this feedback marks a good transaction.
func (f Feedback) Good() bool { return f.Rating.Good() }

// String implements fmt.Stringer.
func (f Feedback) String() string {
	return fmt.Sprintf("feedback{%s s=%s c=%s %s}",
		f.Time.Format(time.RFC3339), f.Server, f.Client, f.Rating)
}
