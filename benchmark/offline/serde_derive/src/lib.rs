//! Offline stand-in for `serde_derive`: each derive emits an empty impl of
//! the stand-in marker trait and accepts (and ignores) `#[serde(...)]`
//! attributes. Generic types are not supported; this repository derives on
//! none.

use proc_macro::{TokenStream, TokenTree};

/// Name of the struct, enum or union the derive input declares.
fn type_name(input: TokenStream) -> String {
    let mut tokens = input.into_iter();
    while let Some(tt) = tokens.next() {
        if let TokenTree::Ident(kw) = &tt {
            let kw = kw.to_string();
            if kw == "struct" || kw == "enum" || kw == "union" {
                let Some(TokenTree::Ident(name)) = tokens.next() else {
                    panic!("stand-in serde_derive: expected a type name after `{kw}`");
                };
                if let Some(TokenTree::Punct(p)) = tokens.next() {
                    assert!(
                        p.as_char() != '<',
                        "stand-in serde_derive does not support generic types ({name})"
                    );
                }
                return name.to_string();
            }
        }
    }
    panic!("stand-in serde_derive: no struct, enum or union in derive input");
}

/// `#[derive(Serialize)]`.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    format!("impl ::serde::Serialize for {} {{}}", type_name(input))
        .parse()
        .expect("generated impl parses")
}

/// `#[derive(Deserialize)]`.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    format!(
        "impl<'de> ::serde::Deserialize<'de> for {} {{}}",
        type_name(input)
    )
    .parse()
    .expect("generated impl parses")
}
