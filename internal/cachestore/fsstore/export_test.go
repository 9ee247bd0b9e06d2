package fsstore

import "time"

// SetClock replaces s's lease clock, so tests move lease time instead of
// sleeping through TTLs. Call it before s is shared between goroutines.
func SetClock(s *Store, now func() time.Time) { s.clock = now }
