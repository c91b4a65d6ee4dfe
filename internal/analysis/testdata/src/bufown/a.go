// Package bufown is hyperlint golden-test input: wire.Buf custody
// against the real hyperion/internal/wire API.
package bufown

import (
	"errors"

	"hyperion/internal/wire"
)

var errBad = errors.New("bad")

var pool = wire.NewPool(64)

func balanced() {
	b := pool.Get(8)
	b.Release()
}

func leakEarlyReturn(bad bool) error {
	b := pool.Get(8) // want `b is not released on every path`
	if bad {
		return errBad
	}
	b.Release()
	return nil
}

func releasedOnBothArms(bad bool) error {
	b := pool.Get(8)
	if bad {
		b.Release()
		return errBad
	}
	b.Release()
	return nil
}

func doubleRelease() {
	b := pool.Get(8)
	b.Release()
	b.Release() // want `double release`
}

func useAfterRelease() bool {
	b := pool.Get(8)
	b.Release()
	if b.Len() > 0 { // want `use of b after Release`
		return true
	}
	return false
}

func useAfterReleaseAsArg(sink func(*wire.Buf)) {
	b := pool.Get(8)
	b.Release()
	sink(b) // want `use of b after Release`
}

func deferred(bad bool) error {
	b := pool.Get(8)
	defer b.Release()
	if bad {
		return errBad
	}
	return nil
}

func deferredClosure(bad bool) error {
	b := pool.Get(8)
	defer func() {
		b.Release()
	}()
	if bad {
		return errBad
	}
	return nil
}

func panicPathIsNotALeak(hard bool) {
	b := pool.Get(8)
	if hard {
		panic("boom")
	}
	b.Release()
}

func discardedGet() {
	pool.Get(8) // want `owned result of Get is discarded`
}

func extraRetainLeaks(b *wire.Buf) {
	b.Retain() // want `b is not released on every path`
}

func retainAssigned(b *wire.Buf) {
	c := b.Retain()
	c.Release()
}

func move() {
	b := pool.Get(8)
	c := b
	c.Release()
}

// The obligation is reachable as b on one path and as d on the other:
// one finding, and it names the least path on every run.
func moveOnOneArm(c bool) {
	b := pool.Get(8) // want `^b is not released on every path`
	var d *wire.Buf
	if c {
		d = b
	}
	_ = d
}

func overwrite() {
	b := pool.Get(8)
	b = pool.Get(16) // want `b is overwritten while still owning a reference`
	b.Release()
}

// send models NIC.Send custody: on success the buffer belongs to the
// callee; on error the caller keeps it.
//
//wire:sends b
func send(b *wire.Buf) error {
	if b.Len() == 0 {
		return errBad
	}
	b.Release()
	return nil
}

func condSendHandled() error {
	b := pool.Get(8)
	if err := send(b); err != nil {
		b.Release()
		return err
	}
	return nil
}

// condSendLeak is the seeded rpc-shaped mutation: the error path
// returns without taking the reference back.
func condSendLeak() error {
	b := pool.Get(8) // want `b is not released on every path`
	if err := send(b); err != nil {
		return err
	}
	return nil
}

func condSendIgnored() {
	b := pool.Get(8)
	send(b) // want `error result of send gates custody of b`
}

type frame struct {
	Buf *wire.Buf
}

//wire:sends f.Buf
func sendFrame(f frame) error {
	if f.Buf == nil {
		return errBad
	}
	f.Buf.Release()
	return nil
}

func frameSendHandled() error {
	hdr := pool.Get(16)
	if err := sendFrame(frame{Buf: hdr}); err != nil {
		hdr.Release()
		return err
	}
	return nil
}

func frameSendLeak() error {
	hdr := pool.Get(16) // want `hdr is not released on every path`
	if err := sendFrame(frame{Buf: hdr}); err != nil {
		return err
	}
	return nil
}

type tx struct {
	buf *wire.Buf
}

func retainIntoFieldBalanced() {
	b := pool.Get(8)
	t := tx{buf: b.Retain()}
	t.buf.Release()
	b.Release()
}

func retainIntoFieldLeak() {
	b := pool.Get(8)
	t := tx{buf: b.Retain()} // want `t\.buf is not released on every path`
	b.Release()
	_ = t
}

// alloc hands its reference to the caller.
//
//wire:owns
func alloc() *wire.Buf {
	return pool.Get(8)
}

//wire:owns
func allocBalanced() *wire.Buf {
	b := pool.Get(8)
	return b
}

//wire:owns
func allocReleased() *wire.Buf {
	b := pool.Get(8)
	b.Release()
	return b // want `returning b after Release`
}

func callerOfAlloc() {
	b := alloc()
	b.Release()
}

func callerOfAllocLeaks(bad bool) error {
	b := alloc() // want `b is not released on every path`
	if bad {
		return errBad
	}
	b.Release()
	return nil
}

// Escapes end tracking: custody visibly moved elsewhere.

func escapesToSink(sink func(*wire.Buf)) {
	b := pool.Get(8)
	sink(b)
}

func escapesToClosure() func() {
	b := pool.Get(8)
	return func() { b.Release() }
}

func escapesToStore(frames map[int]*wire.Buf) {
	b := pool.Get(8)
	frames[0] = b
}

func escapesViaContainerStore(window map[int]tx) {
	b := pool.Get(8)
	of := tx{buf: b.Retain()}
	window[0] = of
	b.Release()
}

func escapesToFieldStore(t *tx) {
	b := pool.Get(8)
	t.buf = b
}

func suppressedLeak(bad bool) {
	//hyperlint:allow(bufown) golden test: the pool is torn down wholesale after this
	b := pool.Get(8)
	if bad {
		return
	}
	b.Release()
}

//wire:bogus directive // want `unknown wire: directive "bogus"`
func badDirective() {}
