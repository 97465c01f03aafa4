//! The one definition every counter struct in the workspace is declared
//! through (`StageCounts`, `EngineStats`, `ServerStats`): a counter is
//! named once, in the field list, and every surface that must carry it is
//! generated from that list, so none of them can drift.

/// Declares a `Copy` struct of `u64`/`usize` counters and generates, from
/// the one field list: the struct itself (attributes and field docs
/// passed through), `FIELDS` (the names), `values()` (the same order, as
/// `u64`), `From<[u64; N]>` (its inverse), `to_json()` (one flat object,
/// keys in declaration order) and a `Display` of `<value> <name>` tokens.
/// The fields, `FIELDS`, `values()` and `to_json()` take the visibility
/// the struct is declared with.
///
/// Two opt-in tails follow the struct: `impl Add;` generates field-wise
/// `Add`/`AddAssign`, and `<attrs> <vis> atomic Name;` generates a mirror
/// struct of relaxed `AtomicU64`s with a `snapshot()` into the plain one.
///
/// ```
/// splat_types::counters! {
///     /// Jobs through a door.
///     #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
///     pub struct Door {
///         /// Jobs that came in.
///         entered: u64,
///         /// Jobs still inside.
///         inside: usize,
///     }
///     impl Add;
/// }
/// let door = Door::from([3, 1]) + Door::from([2, 0]);
/// assert_eq!(Door::FIELDS, ["entered", "inside"]);
/// assert_eq!(door.to_json(), "{\"entered\":5,\"inside\":1}");
/// assert_eq!(door.to_string(), "5 entered, 1 inside");
/// ```
#[macro_export]
macro_rules! counters {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $($(#[$fmeta:meta])* $field:ident: $ty:ident),* $(,)?
        }
        $($tail:tt)*
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $($(#[$fmeta])* $vis $field: $ty),*
        }

        impl $name {
            /// Every counter's name, in declaration order.
            $vis const FIELDS: [&'static str; [$(stringify!($field)),*].len()] =
                [$(stringify!($field)),*];

            /// Every counter's value, in [`FIELDS`](Self::FIELDS) order.
            #[allow(clippy::unnecessary_cast)]
            $vis fn values(&self) -> [u64; Self::FIELDS.len()] {
                [$(self.$field as u64),*]
            }

            /// One machine-readable JSON object covering every counter,
            /// keys in [`FIELDS`](Self::FIELDS) order.
            #[allow(clippy::wrong_self_convention)] // `&self` is the published signature
            $vis fn to_json(&self) -> String {
                let pairs = Self::FIELDS.iter().zip(self.values());
                let body: Vec<String> = pairs.map(|(k, v)| format!("\"{k}\":{v}")).collect();
                format!("{{{}}}", body.join(","))
            }
        }

        impl From<[u64; $name::FIELDS.len()]> for $name {
            #[allow(clippy::unnecessary_cast)]
            fn from([$($field),*]: [u64; $name::FIELDS.len()]) -> Self {
                Self { $($field: $field as $ty),* }
            }
        }

        impl std::fmt::Display for $name {
            /// Every counter as `<value> <name>`, comma-separated, in
            /// declaration order.
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                for (i, (name, value)) in Self::FIELDS.iter().zip(self.values()).enumerate() {
                    write!(f, "{}{value} {name}", if i == 0 { "" } else { ", " })?;
                }
                Ok(())
            }
        }

        $crate::counters!(@tail $name { $($field),* } $($tail)*);
    };
    (@tail $name:ident { $($field:ident),* }) => {};
    (@tail $name:ident { $($field:ident),* } impl Add;) => {
        impl std::ops::Add for $name {
            type Output = Self;
            fn add(self, rhs: Self) -> Self {
                Self { $($field: self.$field + rhs.$field),* }
            }
        }

        impl std::ops::AddAssign for $name {
            fn add_assign(&mut self, rhs: Self) {
                *self = *self + rhs;
            }
        }
    };
    (@tail $name:ident { $($field:ident),* } $(#[$meta:meta])* $vis:vis atomic $atomic:ident;) => {
        $(#[$meta])*
        $vis struct $atomic {
            $($vis $field: std::sync::atomic::AtomicU64),*
        }

        impl $atomic {
            /// Reads every counter (relaxed: they are tallies, not
            /// synchronization) into a plain snapshot.
            $vis fn snapshot(&self) -> $name {
                $name::from([$(self.$field.load(std::sync::atomic::Ordering::Relaxed)),*])
            }
        }
    };
}

#[cfg(test)]
mod tests {
    counters! {
        /// Scratch counters: one of each field type.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        struct Scratch {
            /// A cumulative counter.
            ops: u64,
            /// A gauge.
            depth: usize,
        }
        /// The lock-free mirror.
        #[derive(Debug, Default)]
        atomic ScratchAtomic;
    }

    #[test]
    fn every_generated_surface_follows_the_field_list() {
        let scratch = Scratch::from([7, 2]);
        assert_eq!(Scratch::FIELDS, ["ops", "depth"]);
        assert_eq!((scratch.ops, scratch.depth), (7, 2));
        assert_eq!(scratch.values(), [7, 2]);
        assert_eq!(scratch.to_json(), "{\"ops\":7,\"depth\":2}");
        assert_eq!(scratch.to_string(), "7 ops, 2 depth");
    }

    #[test]
    fn the_atomic_mirror_snapshots_into_the_plain_struct() {
        use std::sync::atomic::Ordering;
        let mirror = ScratchAtomic::default();
        mirror.ops.fetch_add(3, Ordering::Relaxed);
        mirror.depth.fetch_add(1, Ordering::Relaxed);
        assert_eq!(mirror.snapshot(), Scratch::from([3, 1]));
    }
}
