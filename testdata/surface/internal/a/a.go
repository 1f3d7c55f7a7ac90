// Package a holds one case per rule of the exported-surface scan: only
// InPackageOnly, deadFunc, ownTestOnly and Thing.onlyTested belong in its
// lists.
package a

import (
	"encoding/json"
	"net"
	"time"
)

// InPackageOnly is used only inside a.
func InPackageOnly() int { return 1 }

// UsedByB is used by another package.
func UsedByB() int { return InPackageOnly() + point() }

// UsedByTestOfB is used only by another package's test.
func UsedByTestOfB() int { return 2 }

// UsedByExt is used only by a package of another module.
func UsedByExt() int { return 3 }

// UsedByInit is run only by a main package's init.
func UsedByInit() int { return 4 }

// ViaFacade is run only through the root package's exported Facade.
func ViaFacade() int { return 5 }

// viaVarInit is run only by a package-level var initializer.
func viaVarInit() int { return 6 }

var _ = viaVarInit()

// ownTestOnly is used only by a's own test.
func ownTestOnly() int { return 7 }

// Thing reaches other packages only through New's signature.
type Thing struct{ n int }

// New returns a Thing.
func New() *Thing { return &Thing{n: 1} }

// Named is reached because a program names it.
func (t *Thing) Named() int { return t.n }

// onlyTested is a method of a reached type that only a's own test calls.
func (t *Thing) onlyTested() int { return t.n }

// Report is json-tagged, so none of its fields is reported.
type Report struct {
	Count int `json:"count"`
	Other int
}

// MakeReport returns a Report.
func MakeReport() Report { return Report{Count: 1, Other: 2} }

// Backend is implemented by a type of another package, so Do is used
// outside a.
type Backend interface{ Do() int }

// Use calls b's Do.
func Use(b Backend) int { return b.Do() }

// Check returns an error whose Error method implements the predeclared
// interface.
func Check() error { return checkErr{} }

type checkErr struct{}

func (checkErr) Error() string { return "check" }

// pair's y is set only by an unkeyed literal.
type pair struct{ x, y int }

func point() int {
	p := pair{1, 2}
	return p.x
}

func deadFunc() {}

// Conn's methods implement fmt.Stringer, json.Marshaler and net.Conn.
type Conn struct{}

// Dial returns a Conn.
func Dial() *Conn { return &Conn{} }

func (*Conn) String() string                     { return "conn" }
func (*Conn) MarshalJSON() ([]byte, error)       { return json.Marshal("conn") }
func (*Conn) Read(p []byte) (int, error)         { return 0, nil }
func (*Conn) Write(p []byte) (int, error)        { return len(p), nil }
func (*Conn) Close() error                       { return nil }
func (*Conn) LocalAddr() net.Addr                { return nil }
func (*Conn) RemoteAddr() net.Addr               { return nil }
func (*Conn) SetDeadline(t time.Time) error      { return nil }
func (*Conn) SetReadDeadline(t time.Time) error  { return nil }
func (*Conn) SetWriteDeadline(t time.Time) error { return nil }
