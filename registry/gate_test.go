package registry

import "testing"

// TestDecodePeerDrops pins each check of the gate between the wire and
// the consensus state: one row per check, each out of range by one, and
// the in-range edges beside them.
func TestDecodePeerDrops(t *testing.T) {
	const members, bound = 3, 5
	for _, tc := range []struct {
		body string
		msg  peerMsg
		ok   bool
	}{
		{`{"term":1,"cand":2,"last_idx":-1}`, &voteMsg{}, true},
		{`{"term":1,"cand":-1}`, &voteMsg{}, false},
		{`{"term":1,"cand":3}`, &voteMsg{}, false},
		{`{"term":-1}`, &voteMsg{}, false},
		{`{"term":1,"leader":2,"prev":0,"commit":0,"entries":[{"kind":3}],"ok":true,"match":5}`, &appendMsg{}, true},
		{`{"term":1,"prev":-1}`, &appendMsg{}, false},
		{`{"term":1,"commit":-1}`, &appendMsg{}, false},
		{`{"term":1,"leader":-1}`, &appendMsg{}, false},
		{`{"term":1,"leader":3}`, &appendMsg{}, false},
		{`{"term":1,"entries":[{"kind":4}]}`, &appendMsg{}, false},
		{`{"term":1,"ok":true,"match":-1}`, &appendMsg{}, false},
		{`{"term":1,"ok":true,"match":6}`, &appendMsg{}, false},
		{`{"term":1,"prev":1e30}`, &appendMsg{}, false},
		{``, &appendMsg{}, false},
	} {
		if got := decodePeer([]byte(tc.body), tc.msg, members, bound); got != tc.ok {
			t.Errorf("decodePeer(%s) = %v, want %v", tc.body, got, tc.ok)
		}
	}
}
