package lrpc

// The failure record (appendFailure/parseFailure, chain.go) is the one
// form a failed call takes on every wire: a TCP status-4 body, a shm
// slot's payload under slotCodeFailure, a broker's relayed reply. Like
// the chain descriptor it faces attacker-controlled bytes, so its fuzz
// invariant is the same: never panic, and any accepted record re-encodes
// to exactly the bytes parsed.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"
)

// isRefusal reports whether a raw reply is a refusal: status 4 and a
// stage-0 failure record vouching executed 0, under sentinel's code (0,
// plain text, for nil).
func isRefusal(status byte, body []byte, sentinel error) bool {
	return status == 4 && len(body) >= 12 &&
		binary.LittleEndian.Uint32(body[0:4]) == 0 &&
		binary.LittleEndian.Uint32(body[4:8]) == 0 &&
		binary.LittleEndian.Uint32(body[8:12]) == wireErrCode(sentinel)
}

// failureRecord builds a record field by field.
func failureRecord(stage, executed, code uint32, text string) []byte {
	b := binary.LittleEndian.AppendUint32(nil, stage)
	b = binary.LittleEndian.AppendUint32(b, executed)
	b = binary.LittleEndian.AppendUint32(b, code)
	return append(b, text...)
}

// wellFormed is the record grammar, stated apart from parseFailure: 12
// header bytes, a plain call's stage 0 or a chain's stage within
// MaxChainStages, and a vouch at most one past the stage.
func wellFormed(body []byte, chain bool) bool {
	if len(body) < 12 {
		return false
	}
	stage := binary.LittleEndian.Uint32(body[0:4])
	executed := binary.LittleEndian.Uint32(body[4:8])
	limit := uint32(0)
	if chain {
		limit = MaxChainStages
	}
	return stage <= limit && executed <= stage+1
}

func FuzzFailureRecord(f *testing.F) {
	for code := uint32(0); code <= uint32(len(wireSentinels))+1; code++ {
		f.Add(failureRecord(0, code%2, code, "lrpc: detail"), false)
		f.Add(failureRecord(3, 3+code%2, code, "stage text"), true)
	}
	f.Add(failureRecord(0, 1, 0, ""), false)                            // text only, no sentinel
	f.Add(failureRecord(0, 0, 0, "\xff\xfe not utf-8"), false)          // bytes, not runes
	f.Add(failureRecord(MaxChainStages, MaxChainStages+1, 2, ""), true) // deepest vouch
	f.Add([]byte{}, false)                                              // empty
	f.Add([]byte{1, 2, 3}, true)                                        // short
	f.Add(failureRecord(1, 0, 4, "x"), false)                           // a plain call past stage 0
	f.Add(failureRecord(0, 2, 4, "x"), false)                           // a vouch past the stage
	f.Add(failureRecord(MaxChainStages+1, 0, 1, ""), true)              // a stage past MaxChainStages

	f.Fuzz(func(t *testing.T, body []byte, chain bool) {
		err := parseFailure(body, chain)
		var re *RemoteError
		var ce *ChainError
		if !wellFormed(body, chain) {
			if !errors.As(err, &re) || errors.As(err, &ce) || !strings.HasPrefix(re.Msg, "malformed failure record") {
				t.Fatalf("malformed % x (chain %v) decoded to %#v", body, chain, err)
			}
			return
		}
		// The canonical-form invariant: an accepted record is the unique
		// encoding of what was parsed.
		if again := appendFailure(nil, err, 0); !bytes.Equal(again, body) {
			t.Fatalf("% x (chain %v) re-encoded as % x", body, chain, again)
		}
		executed := binary.LittleEndian.Uint32(body[4:8])
		code := binary.LittleEndian.Uint32(body[8:12])
		if chain != errors.As(err, &ce) {
			t.Fatalf("chain %v decoded to %T", chain, err)
		}
		if errors.Is(err, ErrNotExecuted) != (executed == 0) {
			t.Fatalf("executed %d, but errors.Is(ErrNotExecuted) = %v", executed, !(executed == 0))
		}
		for i, s := range wireSentinels {
			if errors.Is(err, s) != (code == uint32(i+1)) {
				t.Fatalf("code %d, but errors.Is(%v) = %v", code, s, code != uint32(i+1))
			}
		}
	})
}
