//! Events and dynamically typed payloads.

use crate::component::ComponentId;
use crate::time::Time;
use std::any::Any;
use std::fmt;

/// An input port on a component. Pure label; meaning is component-defined.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct InPort(pub u16);

/// An output port on a component. Pure label; wired via
/// [`Simulation::connect`](crate::Simulation::connect).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct OutPort(pub u16);

/// A dynamically typed event payload.
///
/// Components in different crates exchange values without sharing a common
/// payload enum: the sender wraps any `'static` value, the receiver
/// [`downcast`](Payload::downcast)s it back. Wrong-type downcasts return the
/// payload so callers can try other types or fail loudly.
///
/// The two payload types that dominate event counts — unit "wake up"
/// markers and bare `u64`s — are stored inline, so the hot self-wakeup
/// path allocates nothing. Everything else is boxed as before; the
/// `downcast`/`is` semantics are identical across representations.
pub struct Payload(Repr);

enum Repr {
    /// `()` — pure wake-up events ([`Payload::empty`]).
    Empty,
    /// A bare `u64`, common for counters and cookies.
    U64(u64),
    /// Any other `'static` value.
    Boxed(Box<dyn Any>),
}

impl Payload {
    /// Wrap a value. `()` and `u64` are stored inline (no allocation).
    pub fn new<T: 'static>(v: T) -> Payload {
        // Runtime type dispatch stands in for specialization: the checks
        // compile to TypeId comparisons and the common cases skip the box.
        let mut v = Some(v);
        let slot: &mut dyn Any = &mut v;
        if let Some(unit) = slot.downcast_mut::<Option<()>>() {
            unit.take();
            return Payload(Repr::Empty);
        }
        if let Some(word) = slot.downcast_mut::<Option<u64>>() {
            return Payload(Repr::U64(word.take().expect(
                "Option wrapped a value two lines up; only this take() empties it",
            )));
        }
        Payload(Repr::Boxed(Box::new(v.take().expect(
            "Option wrapped a value at fn entry; the downcast arms above return before taking",
        ))))
    }

    /// An empty payload for pure "wake up" events. Allocation-free.
    pub fn empty() -> Payload {
        Payload(Repr::Empty)
    }

    /// Recover the concrete value, or get `self` back on type mismatch.
    pub fn downcast<T: 'static>(self) -> Result<Box<T>, Payload> {
        match self.0 {
            // `Box<()>` is a zero-sized allocation: free.
            Repr::Empty => (Box::new(()) as Box<dyn Any>)
                .downcast::<T>()
                .map_err(|_| Payload(Repr::Empty)),
            Repr::U64(v) => (Box::new(v) as Box<dyn Any>)
                .downcast::<T>()
                .map_err(|_| Payload(Repr::U64(v))),
            Repr::Boxed(b) => b.downcast::<T>().map_err(|b| Payload(Repr::Boxed(b))),
        }
    }

    /// Borrow the concrete value if the type matches.
    pub fn downcast_ref<T: 'static>(&self) -> Option<&T> {
        match &self.0 {
            Repr::Empty => {
                static UNIT: () = ();
                (&UNIT as &dyn Any).downcast_ref::<T>()
            }
            Repr::U64(v) => (v as &dyn Any).downcast_ref::<T>(),
            Repr::Boxed(b) => b.downcast_ref::<T>(),
        }
    }

    /// Does this payload hold a `T`?
    pub fn is<T: 'static>(&self) -> bool {
        match &self.0 {
            Repr::Empty => std::any::TypeId::of::<T>() == std::any::TypeId::of::<()>(),
            Repr::U64(_) => std::any::TypeId::of::<T>() == std::any::TypeId::of::<u64>(),
            Repr::Boxed(b) => b.is::<T>(),
        }
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            Repr::Empty => write!(f, "Payload(())"),
            Repr::U64(v) => write!(f, "Payload({v}u64)"),
            Repr::Boxed(b) => write!(f, "Payload(<{:?}>)", (**b).type_id()),
        }
    }
}

/// A delivered event, handed to [`Component::on_event`](crate::Component::on_event).
#[derive(Debug)]
pub struct Event {
    /// Delivery time (equals `ctx.now()` during handling).
    pub time: Time,
    /// Receiving component.
    pub dst: ComponentId,
    /// Input port the event arrived on.
    pub port: InPort,
    /// The data.
    pub payload: Payload,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_roundtrip() {
        let p = Payload::new(17u32);
        assert!(p.is::<u32>());
        assert_eq!(p.downcast_ref::<u32>(), Some(&17));
        assert_eq!(*p.downcast::<u32>().unwrap(), 17);
    }

    #[test]
    fn payload_wrong_type_is_recoverable() {
        let p = Payload::new("hello");
        let p = p.downcast::<u32>().unwrap_err();
        assert_eq!(*p.downcast::<&str>().unwrap(), "hello");
    }

    #[test]
    fn empty_payload_is_unit() {
        assert!(Payload::empty().is::<()>());
    }
}
