package app

import "internal/lib"

// Main, outside internal/ and so not audited, uses lib through calls,
// a literal-interface assertion and a promoted method.
func Main(v any) error {
	if s, ok := v.(interface{ SetMode(bool) }); ok {
		s.SetMode(true)
	}
	var r lib.Router
	r.SetCaching(false)
	_ = lib.Called()
	_, err := lib.Decode([]byte("1"))
	return err
}
